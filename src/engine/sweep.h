// sweep.h — declarative attack sweeps, executed in parallel.
//
// Every table/figure in the paper is a grid of independent attack
// instances: method × attack surface × (S, R) × seed. Sweep is the
// declarative description of such a grid (builder-style; build() expands
// the cartesian product into SweepSpecs), and SweepRunner executes the
// instances concurrently on the shared thread pool. Every row runs through
// the model's compiled plan (compile/model_compiler.h): each instance gets
// its own copy of the attacked head over a shared read-only prefix, so
// solves never race on parameters.
//
// Determinism contract: results are collected into a pre-sized vector by
// instance index, every instance derives its randomness from its own spec
// seed, and each solve runs the same serial kernel path whether it
// executes on the calling thread (1 worker) or inside the pool (N workers,
// where nested parallel_for falls back to serial). A sweep therefore
// produces bitwise-identical rows — including every float in each δ — for
// any FSA_NUM_THREADS (engine_test proves it).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "defense/defense.h"
#include "engine/attacker.h"
#include "eval/attack_bench.h"
#include "eval/table.h"
#include "faultsim/campaign.h"
#include "faultsim/quantize.h"

namespace fsa::compile {
class CompiledModel;
}

namespace fsa::engine {

/// Configuration of the optional end-to-end campaign stage appended to
/// every sweep row: δ → realize in `format` → BitFlipPlan → sharded
/// CampaignRunner, once per configured injector. Campaign totals are
/// bitwise identical for any `shards` (the planner's K-invariance
/// contract), so the shard count is a throughput knob, not a result knob.
struct CampaignConfig {
  std::vector<std::string> injectors = {"rowhammer"};  ///< registry keys
  int shards = 1;
  std::uint64_t seed = 7;  ///< mixed with each row's spec seed per campaign
  faultsim::StorageFormat format = faultsim::StorageFormat::kFloat32;
  faultsim::MemoryLayout layout;

  [[nodiscard]] eval::Json to_json() const;
  static CampaignConfig from_json(const eval::Json& j);
};

/// One attack instance, declaratively: what to run, on which surface.
struct SweepSpec {
  std::string method = "fsa-l0";            ///< registry key (ignored when `attacker` set)
  std::vector<std::string> layers = {"fc3"};  ///< attacked layers (defines the surface/cut)
  bool weights = true;
  bool biases = true;
  std::int64_t S = 1;
  std::int64_t R = 100;
  std::uint64_t seed = 1;                   ///< spec seed (image/target draws)
  core::TargetPolicy policy = core::TargetPolicy::kRandom;
  std::string tag;                          ///< free-form row label (ablation point etc.)
  std::shared_ptr<const Attacker> attacker; ///< pre-configured method override
  bool measure_accuracy = true;             ///< evaluate full-test-set accuracy with δ
  std::optional<CampaignConfig> campaign;   ///< lower δ to hardware campaigns per row
  std::optional<defense::DefenseConfig> defense;  ///< deploy a guard against this row's δ

  /// Canonical surface identity, e.g. "fc1,fc2[w]" — keys the per-surface
  /// AttackBench (features/cut) shared by all instances on that surface.
  [[nodiscard]] std::string surface_key() const;

  /// The declarative fields as JSON — what a dist shard manifest carries so
  /// a worker process can rebuild and solve this exact instance. Throws
  /// std::invalid_argument when a pre-configured `attacker` override is
  /// set: instances shipped across processes must name a registry method.
  [[nodiscard]] eval::Json to_json() const;
  static SweepSpec from_json(const eval::Json& j);
};

/// Builder for a grid of SweepSpecs (methods × surfaces × (S,R) × seeds).
/// Explicitly add()-ed specs are appended to the cartesian expansion; if
/// ONLY add() was used, build() returns just those.
class Sweep {
 public:
  Sweep& method(std::string m) { return methods({std::move(m)}); }
  Sweep& methods(std::vector<std::string> ms);
  Sweep& layers(std::vector<std::string> ls) { return layer_sets({std::move(ls)}); }
  Sweep& layer_sets(std::vector<std::vector<std::string>> sets);
  Sweep& weights_only();
  Sweep& biases_only();
  Sweep& s_values(std::vector<std::int64_t> ss);
  Sweep& r_values(std::vector<std::int64_t> rs);
  /// Explicit (S, R) pairs, in the exact row order wanted.
  Sweep& sr_pairs(std::vector<std::pair<std::int64_t, std::int64_t>> pairs);
  /// R = S for every S in s_values (Table 1/2 style).
  Sweep& r_equals_s();
  /// R = S + offset for every S in s_values (Figure 3 style).
  Sweep& r_offset(std::int64_t offset);
  Sweep& seeds(std::vector<std::uint64_t> seeds);
  /// Derive each instance's seed from its (S, R) — replaces the seeds list.
  /// This is how benches keep their historical per-cell seed formulas.
  Sweep& seed_fn(std::function<std::uint64_t(std::int64_t S, std::int64_t R)> fn);
  Sweep& policy(core::TargetPolicy p);
  /// Shared pre-configured attacker for every cartesian instance.
  Sweep& attacker(std::shared_ptr<const Attacker> a);
  Sweep& measure_accuracy(bool m);
  /// Append the hardware-campaign stage to every instance. Injector names
  /// are validated eagerly (throws the registry's unknown-name error).
  Sweep& with_campaign(CampaignConfig config);
  /// Deploy a defense against every instance's realized δ. The config is
  /// validated eagerly (throws the defense registry's unknown-name error).
  Sweep& with_defense(defense::DefenseConfig config);
  /// Append one fully-specified instance.
  Sweep& add(SweepSpec spec);

  [[nodiscard]] std::vector<SweepSpec> build() const;

 private:
  std::vector<std::string> methods_ = {"fsa-l0"};
  std::vector<std::vector<std::string>> layer_sets_ = {{"fc3"}};
  bool weights_ = true, biases_ = true;
  std::vector<std::int64_t> s_values_ = {1};
  std::vector<std::int64_t> r_values_ = {100};
  std::vector<std::pair<std::int64_t, std::int64_t>> sr_pairs_;
  enum class RMode { kList, kEqualsS, kOffset, kPairs } r_mode_ = RMode::kList;
  std::int64_t r_offset_ = 0;
  std::vector<std::uint64_t> seeds_ = {1};
  std::function<std::uint64_t(std::int64_t, std::int64_t)> seed_fn_;
  core::TargetPolicy policy_ = core::TargetPolicy::kRandom;
  std::shared_ptr<const Attacker> attacker_;
  bool measure_accuracy_ = true;
  std::optional<CampaignConfig> campaign_;
  std::optional<defense::DefenseConfig> defense_;
  bool cartesian_touched_ = false;
  std::vector<SweepSpec> explicit_;
};

/// One executed instance: the request plus its unified report.
struct SweepRow {
  SweepSpec spec;
  AttackReport report;
};

struct SweepResult {
  std::vector<SweepRow> rows;   ///< in build()/request order, independent of schedule
  std::string model;
  std::string backend;          ///< compute backend active during the run
  double seconds = 0.0;         ///< sweep wall time
  int workers = 1;              ///< thread-pool size during the run

  /// First row matching (method, S, R) and, when non-empty, tag. Throws if absent.
  [[nodiscard]] const SweepRow& row(const std::string& method, std::int64_t S, std::int64_t R,
                                    const std::string& tag = "") const;
  /// First row with the given tag. Throws if absent.
  [[nodiscard]] const SweepRow& row_tagged(const std::string& tag) const;

  /// Whole sweep as JSON: {model, backend, workers, seconds, rows: [...]}.
  [[nodiscard]] eval::Json to_json() const;
  /// Write to_json(2) to `path` (directories created; ignored on failure,
  /// like Table::write_csv — bench stdout is the primary artifact).
  void write_json(const std::string& path) const;

  /// Generic flat table (method/surface/S/R/seed/l0/l2/hits/kept/acc/time).
  [[nodiscard]] eval::Table table(const std::string& title) const;
};

/// Executes sweeps against one zoo model. Per-surface AttackBenches
/// (feature caches, clean accuracy) are built once and reused across runs;
/// the per-instance solves fan out over the shared thread pool.
class SweepRunner {
 public:
  SweepRunner(models::ZooModel& model, std::string cache_dir, bool verbose = true);
  ~SweepRunner();

  /// The shared AttackBench for a surface (created on first use). Benches
  /// that post-process results (defense/faultsim/detect) use this to avoid
  /// re-deriving features the runner already cached. Thread-safe.
  eval::AttackBench& bench(const std::vector<std::string>& layers, bool weights = true,
                           bool biases = true);

  /// Build (once) and return the model's compiled plan, which every row
  /// runs through. run() calls this lazily; the serve daemon calls it at
  /// zoo warm-up so compilation happens before the socket opens.
  const compile::CompiledModel& warm_compile();

  SweepResult run(const Sweep& sweep) { return run(sweep.build()); }
  SweepResult run(const std::vector<SweepSpec>& specs);

 private:
  models::ZooModel* model_;
  std::string cache_dir_;
  bool verbose_;
  std::mutex benches_mu_;  ///< guards benches_ and each bench's construction
  std::map<std::string, std::unique_ptr<eval::AttackBench>> benches_;
  std::unique_ptr<compile::CompiledModel> compiled_;  ///< built on first run
};

}  // namespace fsa::engine
