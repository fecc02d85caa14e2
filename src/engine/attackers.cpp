#include "engine/attackers.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "baseline/sba.h"
#include "defense/defenses.h"
#include "core/head_gradient.h"
#include "nn/dense.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace fsa::engine {

namespace {

/// Shared AttackReport scaffolding: problem identity + constraint counts.
AttackReport base_report(const std::string& method, const core::ParamMask& mask,
                         const core::AttackSpec& spec) {
  AttackReport r;
  r.method = method;
  r.surface = mask.describe();
  r.S = spec.S;
  r.R = spec.R();
  return r;
}

void fill_satisfaction(AttackReport& r, std::int64_t hit, std::int64_t kept) {
  r.targets_hit = hit;
  r.maintained = kept;
  r.success_rate = r.S == 0 ? 1.0 : static_cast<double>(hit) / static_cast<double>(r.S);
  r.all_targets_hit = hit == r.S;
  r.all_maintained = kept == r.R - r.S;
}

/// The fault sneaking pipeline shared by the vanilla and evasive
/// adapters: only the AdmmConfig (and thus the evasion constraint)
/// differs between them.
AttackReport run_fsa(const core::FaultSneakingConfig& cfg, const std::string& name,
                     nn::Sequential& net, const core::ParamMask& mask,
                     const core::AttackSpec& spec) {
  core::FaultSneakingConfig traced_cfg = cfg;
  // Convergence curves ride the trace flag: the extra per-iteration work
  // only happens when someone asked to watch, and reducers strip the
  // block so reduced artifacts stay byte-identical either way.
  traced_cfg.admm.record_convergence = obs::trace_enabled();
  core::FaultSneakingAttack attack(net, mask);
  const core::FaultSneakingResult res = attack.run(spec, traced_cfg);

  AttackReport r = base_report(name, mask, spec);
  r.delta = res.delta;
  r.l0 = res.l0;
  r.l2 = res.l2;
  fill_satisfaction(r, res.targets_hit, res.maintained);
  r.attempts = res.attempts;
  r.iterations = res.admm_iterations;
  r.seconds = res.seconds;
  r.convergence = res.convergence;
  return r;
}

/// Make sure the constraint has a box to intersect into; until a guard
/// contributes a bound, every coordinate is effectively free.
void ensure_box(core::EvasionConstraint& ev, std::int64_t d) {
  if (ev.has_box()) return;
  ev.lo = Tensor(Shape({d}));
  ev.hi = Tensor(Shape({d}));
  for (std::int64_t i = 0; i < d; ++i) {
    ev.lo[static_cast<std::size_t>(i)] = -3.0e38f;
    ev.hi[static_cast<std::size_t>(i)] = 3.0e38f;
  }
}

/// Translate one armed guard into constraint terms, recursing through
/// ensembles. Range → δ box from the widened group envelope; checksum →
/// flip budget at block granularity; canary → sentinel coordinates
/// pinned to δ = 0 (their positions are a pure function of the surface,
/// so the attacker predicts them exactly).
void fold_constraint(const defense::Defense& guard, const Tensor& theta0,
                     std::int64_t block_budget, core::EvasionConstraint& ev, bool& any) {
  const auto d = static_cast<std::int64_t>(theta0.numel());
  if (const auto* range = dynamic_cast<const defense::RangeDefense*>(&guard)) {
    const defense::RangeGuard& g = range->guard();
    ensure_box(ev, d);
    for (std::int64_t i = 0; i < d; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      const std::int64_t grp = g.group_of(i);
      ev.lo[ui] = std::max(ev.lo[ui], g.group_lo(grp) - theta0[ui]);
      ev.hi[ui] = std::min(ev.hi[ui], g.group_hi(grp) - theta0[ui]);
    }
    any = true;
  } else if (const auto* ck = dynamic_cast<const defense::ChecksumDefense*>(&guard)) {
    ev.block_params = ck->block_params();
    ev.max_blocks = block_budget;
    any = true;
  } else if (const auto* canary = dynamic_cast<const defense::CanaryDefense*>(&guard)) {
    ensure_box(ev, d);
    for (const std::int64_t i : canary->sentinel_indices()) {
      const auto ui = static_cast<std::size_t>(i);
      ev.lo[ui] = 0.0f;
      ev.hi[ui] = 0.0f;
    }
    any = true;
  } else if (const auto* ens = dynamic_cast<const defense::EnsembleDefense*>(&guard)) {
    for (const defense::DefensePtr& m : ens->members())
      fold_constraint(*m, theta0, block_budget, ev, any);
  }
}

}  // namespace

// ---- FsaAttacker -------------------------------------------------------------

std::string FsaAttacker::default_name(core::NormKind norm) {
  switch (norm) {
    case core::NormKind::kL0: return "fsa-l0";
    case core::NormKind::kL2: return "fsa-l2";
    case core::NormKind::kL1: return "fsa-l1";
  }
  return "fsa";
}

AttackReport FsaAttacker::run(nn::Sequential& net, const core::ParamMask& mask,
                              const core::AttackSpec& spec) const {
  return run_fsa(cfg_, name_, net, mask, spec);
}

// ---- EvasiveFsaAttacker ------------------------------------------------------

EvasiveFsaAttacker::EvasiveFsaAttacker(core::FaultSneakingConfig cfg,
                                       defense::DefenseConfig target, std::string name,
                                       std::int64_t block_budget)
    : cfg_(std::move(cfg)), target_(std::move(target)), name_(std::move(name)),
      block_budget_(block_budget) {
  if (block_budget_ <= 0)
    throw std::invalid_argument("EvasiveFsaAttacker: block budget must be > 0");
  // Fail on an unknown target now, like parse_defense — before a solve.
  if (!target_.name.empty()) (void)defense::make_defense(target_);
}

AttackReport EvasiveFsaAttacker::run(nn::Sequential& net, const core::ParamMask& mask,
                                     const core::AttackSpec& spec) const {
  core::FaultSneakingConfig cfg = cfg_;
  if (!target_.name.empty()) {
    const Tensor theta0 = mask.gather_values();
    defense::DefensePtr guard = defense::make_defense(target_);
    guard->snapshot(theta0);
    auto ev = std::make_shared<core::EvasionConstraint>();
    bool any = false;
    fold_constraint(*guard, theta0, block_budget_, *ev, any);
    if (any) cfg.admm.evasion = std::move(ev);
  }
  return run_fsa(cfg, name_, net, mask, spec);
}

AttackerPtr EvasiveFsaAttacker::retargeted(defense::DefenseConfig target) const {
  return std::make_unique<EvasiveFsaAttacker>(cfg_, std::move(target), name_, block_budget_);
}

// ---- GdaAttacker -------------------------------------------------------------

AttackReport GdaAttacker::run(nn::Sequential& net, const core::ParamMask& mask,
                              const core::AttackSpec& spec) const {
  baseline::GradientDescentAttack gda(net, mask);
  const baseline::GdaResult res = gda.run(spec, cfg_);

  AttackReport r = base_report("gda", mask, spec);
  r.delta = res.delta;
  r.l0 = res.l0;
  r.l2 = res.l2;
  r.seconds = res.seconds;
  r.attempts = 1;

  // GDA only optimizes the S fault rows; measure the whole spec (faults AND
  // anchors) so its report is comparable with the stealth-aware methods.
  const Tensor theta0 = mask.gather_values();
  core::HeadGradient grad(net, mask);
  Tensor theta = theta0;
  theta += res.delta;
  const Tensor logits = grad.logits_at(theta, spec);
  const auto [hit, kept] = core::count_satisfied(logits, spec);
  mask.scatter_values(theta0);
  fill_satisfaction(r, hit, kept);
  return r;
}

// ---- SbaAttacker -------------------------------------------------------------

AttackReport SbaAttacker::run(nn::Sequential& net, const core::ParamMask& mask,
                              const core::AttackSpec& spec) const {
  const auto t0 = std::chrono::steady_clock::now();
  if (spec.S < 1)
    throw std::invalid_argument("sba: needs at least one fault image (S >= 1)");

  // SBA modifies one bias of the network's final Dense layer. Locate it and
  // require it to be inside the surface, so δ lives in the mask space.
  std::size_t li = net.size();
  nn::Dense* final_dense = nullptr;
  for (std::size_t i = net.size(); i-- > 0;) {
    if (auto* d = dynamic_cast<nn::Dense*>(&net.layer(i))) {
      li = i;
      final_dense = d;
      break;
    }
  }
  if (final_dense == nullptr) throw std::invalid_argument("sba: network has no Dense layer");
  const bool bias_in_mask = [&] {
    for (const auto& seg : mask.segments())
      if (seg.param == &final_dense->bias()) return true;
    return false;
  }();
  if (!bias_in_mask)
    throw std::invalid_argument(
        "sba: attack surface must include the final Dense layer's biases (layer '" +
        final_dense->name() + "')");

  const Tensor theta0 = mask.gather_values();

  // Lift the first fault image's cut-point activations to the final layer's
  // input (identity when the surface IS the final layer).
  Tensor f = spec.features.slice0(0, 1);
  for (std::size_t i = mask.cut(); i < li; ++i) f = net.layer(i).forward(f, /*train=*/false);

  // Mutates the final layer's biases in place; δ is read back from the net.
  baseline::single_bias_attack(net, final_dense->name(), f, spec.labels[0], eps_);

  // Express the modification as a δ over the mask and measure the full spec.
  Tensor after = mask.gather_values();
  Tensor delta = after;
  delta -= theta0;
  const Tensor logits = net.forward_from(mask.cut(), spec.features, /*train=*/false);
  const auto [hit, kept] = core::count_satisfied(logits, spec);
  mask.scatter_values(theta0);

  AttackReport r = base_report("sba", mask, spec);
  r.delta = std::move(delta);
  r.l0 = ops::l0_norm(r.delta);
  r.l2 = ops::l2_norm(r.delta);
  fill_satisfaction(r, hit, kept);
  r.attempts = 1;
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return r;
}

}  // namespace fsa::engine
