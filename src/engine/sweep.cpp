#include "engine/sweep.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "backend/compute_backend.h"
#include "compile/model_compiler.h"
#include "core/head_gradient.h"
#include "core/margin_loss.h"
#include "engine/registry.h"
#include "eval/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace fsa::engine {

// ---- CampaignConfig JSON -----------------------------------------------------

eval::Json CampaignConfig::to_json() const {
  eval::Json j = eval::Json::object();
  eval::Json inj = eval::Json::array();
  for (const auto& name : injectors) inj.push_back(eval::Json::string(name));
  j.set("injectors", std::move(inj));
  j.set("shards", eval::Json::number(static_cast<std::int64_t>(shards)));
  // 64-bit values serialize as strings (JSON numbers are doubles, 2^53).
  j.set("seed", eval::Json::string(std::to_string(seed)));
  j.set("format", eval::Json::string(faultsim::format_name(format)));
  eval::Json lay = eval::Json::object();
  lay.set("base_address", eval::Json::string(std::to_string(layout.base_address)));
  lay.set("row_bytes", eval::Json::number(static_cast<std::int64_t>(layout.row_bytes)));
  lay.set("bytes_per_param",
          eval::Json::number(static_cast<std::int64_t>(layout.bytes_per_param)));
  j.set("layout", std::move(lay));
  return j;
}

CampaignConfig CampaignConfig::from_json(const eval::Json& j) {
  CampaignConfig c;
  c.injectors.clear();
  for (const eval::Json& name : j.at("injectors").items()) c.injectors.push_back(name.as_string());
  c.shards = static_cast<int>(j.get_int("shards", 1));
  c.seed = std::stoull(j.get_string("seed", "7"));
  c.format = faultsim::format_from_name(j.get_string("format", "float32"));
  if (j.has("layout")) {
    const eval::Json& lay = j.at("layout");
    c.layout.base_address = std::stoull(lay.get_string("base_address", "0"));
    c.layout.row_bytes = static_cast<std::uint64_t>(lay.get_int("row_bytes", 8192));
    c.layout.bytes_per_param = static_cast<std::uint64_t>(lay.get_int("bytes_per_param", 4));
  }
  return c;
}

// ---- SweepSpec ---------------------------------------------------------------

std::string SweepSpec::surface_key() const {
  std::string key;
  for (const auto& l : layers) key += (key.empty() ? "" : ",") + l;
  if (weights && biases) return key;
  return key + (weights ? "[w]" : "[b]");
}

namespace {

const char* policy_name(core::TargetPolicy p) {
  return p == core::TargetPolicy::kNextLabel ? "next-label" : "random";
}

core::TargetPolicy policy_from_name(const std::string& name) {
  if (name == "random") return core::TargetPolicy::kRandom;
  if (name == "next-label") return core::TargetPolicy::kNextLabel;
  throw std::invalid_argument("unknown target policy \"" + name +
                              "\" (known: random, next-label)");
}

}  // namespace

eval::Json SweepSpec::to_json() const {
  if (attacker)
    throw std::invalid_argument(
        "SweepSpec: a pre-configured attacker override is not serializable — dist shard "
        "manifests carry registry method names only");
  eval::Json j = eval::Json::object();
  j.set("method", eval::Json::string(method));
  eval::Json ls = eval::Json::array();
  for (const auto& l : layers) ls.push_back(eval::Json::string(l));
  j.set("layers", std::move(ls));
  j.set("weights", eval::Json::boolean(weights));
  j.set("biases", eval::Json::boolean(biases));
  j.set("S", eval::Json::number(S));
  j.set("R", eval::Json::number(R));
  j.set("seed", eval::Json::string(std::to_string(seed)));
  j.set("policy", eval::Json::string(policy_name(policy)));
  if (!tag.empty()) j.set("tag", eval::Json::string(tag));
  j.set("measure_accuracy", eval::Json::boolean(measure_accuracy));
  if (campaign) j.set("campaign", campaign->to_json());
  if (defense) j.set("defense", defense->to_json());
  return j;
}

SweepSpec SweepSpec::from_json(const eval::Json& j) {
  SweepSpec s;
  s.method = j.get_string("method", "fsa-l0");
  if (j.has("layers")) {
    s.layers.clear();
    for (const eval::Json& l : j.at("layers").items()) s.layers.push_back(l.as_string());
  }
  s.weights = j.get_bool("weights", true);
  s.biases = j.get_bool("biases", true);
  s.S = j.get_int("S", 1);
  s.R = j.get_int("R", 100);
  s.seed = std::stoull(j.get_string("seed", "1"));
  s.policy = policy_from_name(j.get_string("policy", "random"));
  s.tag = j.get_string("tag", "");
  s.measure_accuracy = j.get_bool("measure_accuracy", true);
  if (j.has("campaign") && !j.at("campaign").is_null())
    s.campaign = CampaignConfig::from_json(j.at("campaign"));
  if (j.has("defense") && !j.at("defense").is_null())
    s.defense = defense::DefenseConfig::from_json(j.at("defense"));
  return s;
}

// ---- Sweep builder -----------------------------------------------------------

Sweep& Sweep::methods(std::vector<std::string> ms) {
  if (ms.empty()) throw std::invalid_argument("Sweep: empty method list");
  methods_ = std::move(ms);
  cartesian_touched_ = true;
  return *this;
}

Sweep& Sweep::layer_sets(std::vector<std::vector<std::string>> sets) {
  if (sets.empty()) throw std::invalid_argument("Sweep: empty layer-set list");
  layer_sets_ = std::move(sets);
  cartesian_touched_ = true;
  return *this;
}

Sweep& Sweep::weights_only() {
  weights_ = true;
  biases_ = false;
  cartesian_touched_ = true;
  return *this;
}

Sweep& Sweep::biases_only() {
  weights_ = false;
  biases_ = true;
  cartesian_touched_ = true;
  return *this;
}

Sweep& Sweep::s_values(std::vector<std::int64_t> ss) {
  if (ss.empty()) throw std::invalid_argument("Sweep: empty S list");
  s_values_ = std::move(ss);
  cartesian_touched_ = true;
  return *this;
}

Sweep& Sweep::r_values(std::vector<std::int64_t> rs) {
  if (rs.empty()) throw std::invalid_argument("Sweep: empty R list");
  r_values_ = std::move(rs);
  r_mode_ = RMode::kList;
  cartesian_touched_ = true;
  return *this;
}

Sweep& Sweep::sr_pairs(std::vector<std::pair<std::int64_t, std::int64_t>> pairs) {
  if (pairs.empty()) throw std::invalid_argument("Sweep: empty (S,R) pair list");
  sr_pairs_ = std::move(pairs);
  r_mode_ = RMode::kPairs;
  cartesian_touched_ = true;
  return *this;
}

Sweep& Sweep::r_equals_s() {
  r_mode_ = RMode::kEqualsS;
  cartesian_touched_ = true;
  return *this;
}

Sweep& Sweep::r_offset(std::int64_t offset) {
  r_mode_ = RMode::kOffset;
  r_offset_ = offset;
  cartesian_touched_ = true;
  return *this;
}

Sweep& Sweep::seeds(std::vector<std::uint64_t> seeds) {
  if (seeds.empty()) throw std::invalid_argument("Sweep: empty seed list");
  seeds_ = std::move(seeds);
  seed_fn_ = nullptr;
  cartesian_touched_ = true;
  return *this;
}

Sweep& Sweep::seed_fn(std::function<std::uint64_t(std::int64_t, std::int64_t)> fn) {
  seed_fn_ = std::move(fn);
  cartesian_touched_ = true;
  return *this;
}

// policy/attacker/measure_accuracy are per-instance OPTIONS, not grid
// dimensions: setting one must not conjure a default cartesian cell when the
// sweep is otherwise built from explicit add() calls.
Sweep& Sweep::policy(core::TargetPolicy p) {
  policy_ = p;
  return *this;
}

Sweep& Sweep::attacker(std::shared_ptr<const Attacker> a) {
  attacker_ = std::move(a);
  return *this;
}

Sweep& Sweep::measure_accuracy(bool m) {
  measure_accuracy_ = m;
  return *this;
}

Sweep& Sweep::with_campaign(CampaignConfig config) {
  if (config.injectors.empty())
    throw std::invalid_argument("Sweep: with_campaign needs at least one injector");
  if (config.shards < 1)
    throw std::invalid_argument("Sweep: campaign shard count must be >= 1, got " +
                                std::to_string(config.shards));
  // Validate every injector name now, not inside the parallel phase.
  for (const auto& name : config.injectors) (void)faultsim::make_injector(name);
  campaign_ = std::move(config);
  return *this;
}

Sweep& Sweep::with_defense(defense::DefenseConfig config) {
  // Unknown names / bad knobs fail here, not inside the parallel phase.
  (void)defense::make_defense(config);
  defense_ = std::move(config);
  return *this;
}

Sweep& Sweep::add(SweepSpec spec) {
  explicit_.push_back(std::move(spec));
  return *this;
}

std::vector<SweepSpec> Sweep::build() const {
  std::vector<SweepSpec> out;
  if (cartesian_touched_ || explicit_.empty()) {
    std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
    switch (r_mode_) {
      case RMode::kPairs: pairs = sr_pairs_; break;
      case RMode::kEqualsS:
        for (auto s : s_values_) pairs.emplace_back(s, s);
        break;
      case RMode::kOffset:
        for (auto s : s_values_) pairs.emplace_back(s, s + r_offset_);
        break;
      case RMode::kList:
        for (auto r : r_values_)
          for (auto s : s_values_) pairs.emplace_back(s, r);
        break;
    }
    // seed_fn replaces the seeds list: one instance per cell, seeded by (S, R).
    const std::vector<std::uint64_t> seeds = seed_fn_ ? std::vector<std::uint64_t>{0} : seeds_;
    for (const auto& method : methods_)
      for (const auto& layers : layer_sets_)
        for (const auto& [s, r] : pairs)
          for (const auto seed : seeds) {
            SweepSpec spec;
            spec.method = method;
            spec.layers = layers;
            spec.weights = weights_;
            spec.biases = biases_;
            spec.S = s;
            spec.R = r;
            spec.seed = seed_fn_ ? seed_fn_(s, r) : seed;
            spec.policy = policy_;
            spec.attacker = attacker_;
            spec.measure_accuracy = measure_accuracy_;
            out.push_back(std::move(spec));
          }
  }
  out.insert(out.end(), explicit_.begin(), explicit_.end());
  if (campaign_)
    for (auto& spec : out)
      if (!spec.campaign) spec.campaign = campaign_;
  if (defense_)
    for (auto& spec : out)
      if (!spec.defense) spec.defense = defense_;
  return out;
}

// ---- SweepResult -------------------------------------------------------------

const SweepRow& SweepResult::row(const std::string& method, std::int64_t S, std::int64_t R,
                                 const std::string& tag) const {
  for (const auto& r : rows)
    if (r.report.method == method && r.spec.S == S && r.spec.R == R &&
        (tag.empty() || r.spec.tag == tag))
      return r;
  throw std::out_of_range("SweepResult: no row for method=" + method + " S=" + std::to_string(S) +
                          " R=" + std::to_string(R) + (tag.empty() ? "" : " tag=" + tag));
}

const SweepRow& SweepResult::row_tagged(const std::string& tag) const {
  for (const auto& r : rows)
    if (r.spec.tag == tag) return r;
  throw std::out_of_range("SweepResult: no row tagged \"" + tag + "\"");
}

eval::Json SweepResult::to_json() const {
  eval::Json j = eval::Json::object();
  j.set("model", eval::Json::string(model));
  j.set("backend", eval::Json::string(backend));
  j.set("workers", eval::Json::number(static_cast<std::int64_t>(workers)));
  j.set("seconds", eval::Json::number(seconds));
  eval::Json arr = eval::Json::array();
  for (const auto& r : rows) {
    eval::Json obj = r.report.to_json();
    if (!r.spec.tag.empty()) obj.set("tag", eval::Json::string(r.spec.tag));
    arr.push_back(std::move(obj));
  }
  j.set("rows", std::move(arr));
  return j;
}

void SweepResult::write_json(const std::string& path) const {
  try {
    const std::filesystem::path p(path);
    if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
    std::ofstream os(path);
    os << to_json().dump(2) << "\n";
  } catch (const std::exception&) {
    // Like Table::write_csv: stdout is the primary artifact.
  }
}

eval::Table SweepResult::table(const std::string& title) const {
  // Campaign columns are appended only when some row carries the stage:
  // bit-flip plan size plus, per injector, projected hours and the
  // attempts/massages effort counters. The column set is the union of
  // every row's injectors (explicit specs may configure different ones),
  // in first-appearance order.
  std::vector<std::string> injectors;
  for (const auto& r : rows)
    if (r.report.campaign)
      for (const auto& c : r.report.campaign->reports)
        if (std::find(injectors.begin(), injectors.end(), c.injector) == injectors.end())
          injectors.push_back(c.injector);
  bool any_defense = false;
  for (const auto& r : rows)
    if (r.report.defense) any_defense = true;
  eval::Table t(title);
  std::vector<std::string> header = {"method", "backend", "surface", "S", "R", "seed", "l0",
                                     "l2", "faults", "anchors", "test acc", "time"};
  if (any_defense) {
    header.push_back("defense");
    header.push_back("det");
    header.push_back("evaded");
  }
  if (!injectors.empty()) {
    header.push_back("bits");
    for (const auto& name : injectors) {
      header.push_back(name + " h");
      header.push_back(name + " att/mass");
    }
  }
  t.header(header);
  for (const auto& r : rows) {
    const auto& rep = r.report;
    std::vector<std::string> cells = {
        rep.method + (r.spec.tag.empty() ? "" : " (" + r.spec.tag + ")"),
        rep.backend.empty() ? "-" : rep.backend, r.spec.surface_key(),
        std::to_string(rep.S), std::to_string(rep.R), std::to_string(r.spec.seed),
        std::to_string(rep.l0), eval::fmt(rep.l2, 2),
        std::to_string(rep.targets_hit) + "/" + std::to_string(rep.S),
        std::to_string(rep.maintained) + "/" + std::to_string(rep.R - rep.S),
        rep.test_accuracy < 0.0 ? "-" : eval::pct(rep.test_accuracy),
        eval::fmt(rep.seconds, 1) + "s"};
    if (any_defense) {
      cells.push_back(rep.defense ? rep.defense->defense : "-");
      cells.push_back(!rep.defense ? "-" : (rep.defense->detected ? "yes" : "no"));
      cells.push_back(!rep.defense ? "-" : (rep.defense->evaded ? "yes" : "no"));
    }
    if (!injectors.empty()) {
      cells.push_back(rep.campaign ? std::to_string(rep.campaign->total_bit_flips) : "-");
      for (const auto& name : injectors) {
        if (!rep.campaign) {
          cells.push_back("-");
          cells.push_back("-");
          continue;
        }
        const faultsim::CampaignReport* c = nullptr;
        for (const auto& cand : rep.campaign->reports)
          if (cand.injector == name) c = &cand;
        cells.push_back(c ? eval::fmt(c->seconds / 3600.0, 2) + (c->success ? "" : "!") : "-");
        cells.push_back(c ? std::to_string(c->attempts) + "/" + std::to_string(c->massages)
                          : "-");
      }
    }
    t.row(cells);
  }
  return t;
}

// ---- SweepRunner -------------------------------------------------------------

SweepRunner::SweepRunner(models::ZooModel& model, std::string cache_dir, bool verbose)
    : model_(&model), cache_dir_(std::move(cache_dir)), verbose_(verbose) {}

SweepRunner::~SweepRunner() = default;

const compile::CompiledModel& SweepRunner::warm_compile() {
  if (!compiled_) {
    compiled_ = std::make_unique<compile::CompiledModel>(model_->net);
    if (verbose_)
      std::printf("[sweep] compiled %s: %zu node(s), %zu fused\n", model_->name.c_str(),
                  compiled_->node_count(), compiled_->fused_nodes());
  }
  return *compiled_;
}

eval::AttackBench& SweepRunner::bench(const std::vector<std::string>& layers, bool weights,
                                      bool biases) {
  SweepSpec key_spec;
  key_spec.layers = layers;
  key_spec.weights = weights;
  key_spec.biases = biases;
  const std::string key = key_spec.surface_key();
  // Held across construction too: building a bench runs the shared net's
  // layer forwards, and batcher executors with different batch keys share
  // this runner.
  const std::lock_guard lock(benches_mu_);
  auto it = benches_.find(key);
  if (it == benches_.end())
    it = benches_
             .emplace(key, std::make_unique<eval::AttackBench>(*model_, cache_dir_, layers,
                                                               weights, biases))
             .first;
  return *it->second;
}

SweepResult SweepRunner::run(const std::vector<SweepSpec>& specs) {
  if (specs.empty()) throw std::invalid_argument("SweepRunner: empty sweep");
  const std::int64_t n = static_cast<std::int64_t>(specs.size());
  const eval::Stopwatch total;
  OBS_SPAN("sweep.run");
  static obs::Counter& rows_metric = obs::Registry::global().counter("fsa_sweep_rows_total");
  static obs::Histogram& row_ms_metric = obs::Registry::global().histogram(
      "fsa_sweep_row_ms", obs::exponential_bounds(1.0, 4.0, 12));

  // Serial prologue: per-surface benches (feature caches hit disk), attack
  // problem instances, and one shared Attacker per method. Everything the
  // parallel phase touches after this point is either task-local (instance
  // nets) or read-only (features, specs, configs, the compiled plan).
  struct Task {
    const SweepSpec* spec = nullptr;
    eval::AttackBench* bench = nullptr;
    std::shared_ptr<const Attacker> attacker;
    core::AttackSpec problem;
    std::size_t cut = 0;  ///< surface cut: the plan's shared-prefix boundary
  };
  const compile::CompiledModel& plan = warm_compile();
  std::vector<Task> tasks(static_cast<std::size_t>(n));
  std::map<std::string, std::shared_ptr<const Attacker>> method_cache;
  std::optional<obs::TraceSpan> prologue_span;
  prologue_span.emplace("sweep.prologue");
  for (std::int64_t i = 0; i < n; ++i) {
    Task& t = tasks[static_cast<std::size_t>(i)];
    t.spec = &specs[static_cast<std::size_t>(i)];
    t.bench = &bench(t.spec->layers, t.spec->weights, t.spec->biases);
    if (t.spec->attacker) {
      t.attacker = t.spec->attacker;
    } else if (t.spec->defense) {
      // Detection-aware methods retarget at THE guard this row faces, so
      // cache per (method, deployed defense); unaware methods come back
      // unchanged but keying them the same way is harmless.
      auto& cached = method_cache[t.spec->method + "@" + t.spec->defense->key()];
      if (!cached) cached = make_attacker_for(t.spec->method, *t.spec->defense);
      t.attacker = cached;
    } else {
      auto& cached = method_cache[t.spec->method];
      if (!cached) cached = make_attacker(t.spec->method);  // throws on unknown name
      t.attacker = cached;
    }
    t.problem = t.bench->spec(t.spec->S, t.spec->R, t.spec->seed, t.spec->policy);
    t.cut = core::ParamMask::make(model_->net, t.spec->layers, t.spec->weights, t.spec->biases)
                .cut();
  }

  // Parallel phase: one task per instance, each on its own instance net.
  // Results land at their instance index, so row order (and content — the
  // solves are deterministic given the spec) is independent of scheduling.
  // Instances are claimed one at a time from an atomic queue rather than
  // pre-chunked: parallel_for's ~4-chunks-per-thread sizing would batch
  // several minutes-long solves into one unstealable chunk and leave
  // workers idle behind a straggler.
  SweepResult result;
  result.model = model_->name;
  result.backend = backend::active_name();
  result.workers = num_threads();
  result.rows.resize(static_cast<std::size_t>(n));
  prologue_span.reset();
  std::atomic<std::int64_t> next{0};
  const std::int64_t lanes = std::min<std::int64_t>(n, num_threads());
  parallel_for(0, lanes, 1, [&](std::int64_t, std::int64_t) {
    for (std::int64_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const Task& t = tasks[static_cast<std::size_t>(i)];
      const eval::Stopwatch row_watch;
      // Attribution tag only materializes when tracing is on — and is
      // built with one allocation, not a concatenation chain: rows can be
      // tens of microseconds, so per-row telemetry cost must stay in the
      // noise (run_benches.sh gates the traced path at 3%).
      std::string row_tag;
      if (obs::trace_enabled()) {
        row_tag.reserve(96);
        row_tag += t.spec->method;
        row_tag += ' ';
        row_tag += t.spec->surface_key();
        row_tag += " S=";
        row_tag += std::to_string(t.spec->S);
        row_tag += " R=";
        row_tag += std::to_string(t.spec->R);
        row_tag += " seed=";
        row_tag += std::to_string(t.spec->seed);
        row_tag += " backend=";
        row_tag += backend::active_name();
      }
      OBS_SPAN("sweep.row", std::move(row_tag));
      // O(δ-surface) instance: the prefix below the cut is shared
      // read-only with every other instance, only the attacked head is
      // deep-copied.
      nn::Sequential net = plan.instance_net(t.cut);
      const core::ParamMask mask =
          core::ParamMask::make(net, t.spec->layers, t.spec->weights, t.spec->biases);
      const backend::ComputeBackend& be = backend::active();
      be.begin_attribution();  // this instance's kernels all run on this thread
      AttackReport rep = t.attacker->run(net, mask, t.problem);
      rep.seed = t.spec->seed;
      rep.backend = be.attribution();  // which kernels produced this row ("auto(...)")
      rep.clean_accuracy = t.bench->clean_test_accuracy();
      if (t.spec->campaign) {
        // Lower δ to hardware: runs BEFORE the accuracy scatter below, while
        // the surface still holds θ0. The campaign seed mixes the config
        // seed with the row's spec seed so rows draw independent campaigns
        // while staying deterministic (and shard-count invariant).
        const CampaignConfig& cfg = *t.spec->campaign;
        const Tensor theta0 = mask.gather_values();
        const Tensor realized = faultsim::realize_in_format(theta0, rep.delta, cfg.format);
        const faultsim::BitFlipPlan plan =
            faultsim::plan_bit_flips(theta0, realized, cfg.layout);
        CampaignSummary summary;
        summary.format = faultsim::format_name(cfg.format);
        summary.shards = cfg.shards;
        summary.params_modified = plan.params_modified;
        summary.total_bit_flips = plan.total_bit_flips;
        summary.rows_touched = plan.rows_touched;
        const std::uint64_t campaign_seed = SplitMix64(cfg.seed ^ t.spec->seed).next();
        const faultsim::CampaignRunner campaign_runner(cfg.shards, campaign_seed);
        for (const std::string& injector : cfg.injectors)
          summary.reports.push_back(campaign_runner.run(injector, plan, cfg.layout));
        rep.campaign = std::move(summary);
      }
      if (t.spec->defense) {
        // Audit the row's δ with the deployed guard: arm on θ0, verify
        // the attacked parameters both before and after storage-format
        // lowering (quantization realization counts — a δ absorbed by
        // int8 rounding can't trip a checksum), sanitize, and re-measure
        // the S faults on the repaired parameters. Runs while the
        // surface still holds θ0; the clone is task-local, so
        // logits_at's scatter can't race.
        const Tensor theta0 = mask.gather_values();
        const defense::DefensePtr guard = defense::make_defense(*t.spec->defense);
        guard->snapshot(theta0);
        Tensor attacked = theta0;
        attacked += rep.delta;
        const defense::VerifyOutcome pre = guard->verify(attacked);
        const auto format = t.spec->campaign ? t.spec->campaign->format
                                             : faultsim::StorageFormat::kFloat32;
        Tensor stored = theta0;
        stored += faultsim::realize_in_format(theta0, rep.delta, format);
        const defense::VerifyOutcome post = guard->verify(stored);
        Tensor repaired = stored;
        const std::int64_t clamped = guard->sanitize(repaired);
        core::HeadGradient grad(net, mask);
        const Tensor logits = grad.logits_at(repaired, t.problem);
        const auto [hit, kept] = core::count_satisfied(logits, t.problem);
        (void)kept;
        mask.scatter_values(theta0);
        DefenseOutcome dout;
        dout.defense = t.spec->defense->key();
        dout.detected_pre = pre.detected;
        dout.detected_post = post.detected;
        dout.detected = pre.detected || post.detected;
        dout.regions_flagged = post.regions_flagged;
        dout.sanitize_clamped = clamped;
        dout.faults_after_sanitize = hit;
        dout.evaded = !dout.detected && t.spec->S > 0 && hit == t.spec->S;
        dout.overhead_bytes = guard->overhead_bytes();
        dout.verify_cost = guard->verify_cost();
        rep.defense = std::move(dout);
      }
      if (t.spec->measure_accuracy) {
        Tensor theta = mask.gather_values();  // == θ0: run() restored the surface
        theta += rep.delta;
        mask.scatter_values(theta);  // bumps surface param versions (panel COW)
        // Fused head evaluation sharing the plan's pack-once panels; panels
        // of mutated surface layers repack privately on first use
        // (copy-on-write), so the result is bitwise models::head_accuracy's.
        compile::CompiledModel cm = plan.rebind(net);
        rep.test_accuracy = compile::head_accuracy(cm, mask.cut(), t.bench->test_features(),
                                                   t.bench->model().test.labels());
      }
      if (verbose_)
        std::printf("[sweep %lld/%lld] %s %s S=%lld R=%lld seed=%llu: l0=%lld targets %lld/%lld"
                    " (%.1fs)\n",
                    static_cast<long long>(i + 1), static_cast<long long>(n),
                    rep.method.c_str(), t.spec->surface_key().c_str(),
                    static_cast<long long>(rep.S), static_cast<long long>(rep.R),
                    static_cast<unsigned long long>(rep.seed), static_cast<long long>(rep.l0),
                    static_cast<long long>(rep.targets_hit), static_cast<long long>(rep.S),
                    rep.seconds);
      SweepRow& row = result.rows[static_cast<std::size_t>(i)];
      row.spec = *t.spec;
      row.report = std::move(rep);
      rows_metric.inc();
      row_ms_metric.observe(row_watch.seconds() * 1000.0);
    }
  });

  result.seconds = total.seconds();
  if (verbose_)
    std::printf("[sweep] %lld instance(s) in %.1fs on %d worker(s)\n", static_cast<long long>(n),
                result.seconds, result.workers);
  return result;
}

}  // namespace fsa::engine
