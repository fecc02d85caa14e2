// dist_test.cpp — the multi-process distribution subsystem.
//
// Covers the JobDir protocol, run_job over local lease workers and the
// `dist serve` loop (REAL child processes: this test binary re-executes
// itself in fsa_cli's `dist serve` and --run-shard modes — see main() at
// the bottom), the zero-drift reducers (associativity / commutativity
// over shuffled shard orders, canonical row union), the crashed-worker
// retry path, sweep/campaign spec JSON round-trips, and the injector
// calibration profiles the manifests embed.
//
// The headline guarantee under test: a job reduced from 1 shard, N
// in-process shards, or N child PROCESSES produces byte-identical
// reduced JSON.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "defense/defense.h"
#include "dist/job_dir.h"
#include "dist/jobs.h"
#include "dist/lease.h"
#include "dist/reducer.h"
#include "dist/serve.h"
#include "dist/worker_pool.h"
#include "engine/registry.h"
#include "engine/sweep.h"
#include "eval/args.h"
#include "faultsim/bitflip.h"
#include "faultsim/campaign.h"
#include "faultsim/injectors.h"
#include "faultsim/profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace fsa::dist {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
struct Scratch {
  fs::path dir;
  explicit Scratch(const std::string& name) {
    dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~Scratch() { fs::remove_all(dir); }
  [[nodiscard]] std::string sub(const std::string& name) const { return (dir / name).string(); }
};

/// Restores built-in injector parameters when a profile test returns.
struct ProfileGuard {
  ~ProfileGuard() { faultsim::clear_injector_profile(); }
};

// A small deterministic bit-flip plan: 40 params touched with mixed bit
// patterns, enough to spread over many shards and DRAM rows.
faultsim::BitFlipPlan test_plan() {
  Rng rng(99);
  const std::int64_t n = 4096;
  Tensor theta0 = Tensor::randn(Shape({n}), rng);
  Tensor delta = Tensor::zeros(Shape({n}));
  for (std::int64_t i = 0; i < n; i += 100)
    delta[static_cast<std::size_t>(i)] = static_cast<float>(rng.normal());
  return faultsim::plan_bit_flips(theta0, delta, faultsim::MemoryLayout{});
}

// ---- JobDir ------------------------------------------------------------------

TEST(JobDir, CreateOpenStatusRoundTrip) {
  Scratch scratch("fsa_dist_jobdir");
  eval::Json manifest = eval::Json::object();
  manifest.set("shards", eval::Json::number(std::int64_t{3}));
  const JobDir job = JobDir::create(scratch.sub("job"), "campaign", 3, manifest);
  EXPECT_EQ(job.kind(), "campaign");
  EXPECT_EQ(job.shards(), 3);
  EXPECT_TRUE(JobDir::exists(scratch.sub("job")));
  EXPECT_FALSE(JobDir::exists(scratch.sub("nope")));

  JobStatus st = job.status();
  EXPECT_EQ(st.shards, 3);
  EXPECT_TRUE(st.done.empty());
  EXPECT_EQ(st.missing, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(st.reduced);

  eval::Json result = eval::Json::object();
  result.set("report", eval::Json::object());
  job.write_result(1, result);
  st = job.status();
  EXPECT_EQ(st.done, (std::vector<int>{1}));
  EXPECT_EQ(st.missing, (std::vector<int>{0, 2}));
  EXPECT_TRUE(job.has_result(1));
  EXPECT_FALSE(job.has_result(0));

  const JobDir reopened = JobDir::open(scratch.sub("job"));
  EXPECT_EQ(reopened.kind(), "campaign");
  EXPECT_EQ(reopened.shards(), 3);
  EXPECT_EQ(reopened.manifest().get_int("shards", 0), 3);

  // Append-only: a laid-out job is never silently clobbered.
  EXPECT_THROW(JobDir::create(scratch.sub("job"), "campaign", 3, manifest),
               std::invalid_argument);
  // Shard indices are range-checked everywhere.
  EXPECT_THROW((void)job.result_path(3), std::out_of_range);
  EXPECT_THROW((void)job.log_path(-1), std::out_of_range);
  // Reducing with missing shards names them.
  try {
    (void)reduce_job(job);
    FAIL() << "expected missing-shard error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("0, 2"), std::string::npos) << e.what();
  }
}

TEST(JobDir, OpenOrCreateResumesOnlyMatchingManifests) {
  Scratch scratch("fsa_dist_resume_guard");
  const faultsim::BitFlipPlan plan = test_plan();
  const faultsim::MemoryLayout layout;
  const faultsim::CampaignPlanner planner("laser", 2, 7);
  const eval::Json manifest = planner.manifest(plan, layout);

  const JobDir created = open_or_create_job(scratch.sub("job"), "campaign", manifest);
  EXPECT_EQ(created.shards(), 2);
  // Same request → resume.
  const JobDir resumed = open_or_create_job(scratch.sub("job"), "campaign", manifest);
  EXPECT_EQ(resumed.shards(), 2);
  // A leftover dir must never silently answer a DIFFERENT request.
  const faultsim::CampaignPlanner other("rowhammer", 2, 7);
  EXPECT_THROW(
      (void)open_or_create_job(scratch.sub("job"), "campaign", other.manifest(plan, layout)),
      std::invalid_argument);
  EXPECT_THROW((void)open_or_create_job(scratch.sub("job"), "sweep", manifest),
               std::invalid_argument);
}

// ---- campaign jobs: in-process shard workers ---------------------------------

TEST(CampaignJob, ShardWorkersReduceBitwiseIdenticalForAnyShardCount) {
  Scratch scratch("fsa_dist_campaign");
  const faultsim::BitFlipPlan plan = test_plan();
  const faultsim::MemoryLayout layout;

  // The merged REPORT must not drift by a byte across shard counts (the
  // top-level "shards" field legitimately records each job's own K).
  std::string baseline;
  for (const int shards : {1, 3, 8}) {
    const std::string dir = scratch.sub("job_k" + std::to_string(shards));
    const faultsim::CampaignPlanner planner("rowhammer", shards, 7);
    const JobDir job = create_campaign_job(dir, planner, plan, layout);
    const eval::Json manifest = job.manifest();
    for (int s = 0; s < shards; ++s) job.write_result(s, run_campaign_shard(manifest, s));
    const std::string reduced = reduce_job(job).at("report").dump(2);
    if (baseline.empty())
      baseline = reduced;
    else
      EXPECT_EQ(reduced, baseline) << shards << " shards drifted";
  }

  // And the job path matches the in-process CampaignRunner totals.
  const faultsim::CampaignReport direct =
      faultsim::CampaignRunner(1, 7).run("rowhammer", plan, layout);
  const faultsim::CampaignReport merged =
      faultsim::CampaignReport::from_json(eval::Json::parse(baseline));
  EXPECT_EQ(merged.attempts, direct.attempts);
  EXPECT_EQ(merged.massages, direct.massages);
  EXPECT_EQ(merged.bits_flipped, direct.bits_flipped);
  EXPECT_EQ(merged.rows_touched, direct.rows_touched);
  EXPECT_EQ(merged.seconds, direct.seconds);  // bitwise: recomputed, not summed
}

TEST(CampaignJob, ShardIndexOutOfRangeThrows) {
  Scratch scratch("fsa_dist_campaign_oob");
  const faultsim::CampaignPlanner planner("laser", 4, 7);
  const JobDir job =
      create_campaign_job(scratch.sub("job"), planner, test_plan(), faultsim::MemoryLayout{});
  const eval::Json manifest = job.manifest();
  EXPECT_THROW((void)run_campaign_shard(manifest, -1), std::out_of_range);
  EXPECT_THROW((void)run_campaign_shard(manifest, 4), std::out_of_range);
}

// ---- reducer properties ------------------------------------------------------

TEST(CampaignReducer, MergeIsAssociativeAndCommutativeOverShardOrder) {
  const faultsim::BitFlipPlan plan = test_plan();
  const faultsim::CampaignPlanner planner("rowhammer", 6, 11);
  const std::vector<faultsim::CampaignShard> shards =
      planner.shards(plan, faultsim::MemoryLayout{});
  const faultsim::InjectorPtr injector = faultsim::make_injector("rowhammer");
  std::vector<faultsim::CampaignReport> parts;
  for (const auto& s : shards) parts.push_back(injector->simulate_shard(s, faultsim::MemoryLayout{}));

  const eval::Json flat = injector->merge(parts).to_json();
  // Commutativity: any permutation of the parts merges identically.
  std::mt19937 perm_rng(123);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<faultsim::CampaignReport> shuffled = parts;
    std::shuffle(shuffled.begin(), shuffled.end(), perm_rng);
    EXPECT_EQ(injector->merge(shuffled).to_json().dump(), flat.dump()) << "trial " << trial;
  }
  // Associativity: grouped merges of merged sub-results match the flat merge.
  const faultsim::CampaignReport left =
      injector->merge({parts[0], parts[1], parts[2]});
  const faultsim::CampaignReport right = injector->merge({parts[3], parts[4], parts[5]});
  EXPECT_EQ(injector->merge({left, right}).to_json().dump(), flat.dump());
}

/// Fabricated sweep shard results (no model needed): the reducer's row
/// union must be independent of which shard produced which row and of the
/// order results are presented in.
TEST(SweepReducer, RowUnionIsOrderIndependentAndCanonical) {
  eval::Json manifest = eval::Json::object();
  manifest.set("kind", eval::Json::string("sweep"));
  manifest.set("dataset", eval::Json::string("blobs"));
  manifest.set("backend", eval::Json::string("blocked"));
  manifest.set("shards", eval::Json::number(std::int64_t{4}));

  const auto make_row = [](const std::string& method, std::int64_t S, std::int64_t R,
                           std::uint64_t seed, std::int64_t index, double seconds) {
    engine::AttackReport rep;
    rep.method = method;
    rep.surface = "fc2";
    rep.S = S;
    rep.R = R;
    rep.seed = seed;
    rep.l0 = S * 10;
    rep.seconds = seconds;  // nondeterministic wall time → must be scrubbed
    eval::Json row = rep.to_json();
    row.set("index", eval::Json::number(index));
    return row;
  };
  const auto shard_result = [](std::vector<eval::Json> rows) {
    eval::Json r = eval::Json::object();
    r.set("kind", eval::Json::string("sweep"));
    eval::Json arr = eval::Json::array();
    for (auto& row : rows) arr.push_back(std::move(row));
    r.set("rows", std::move(arr));
    return r;
  };

  // 4 instances: two methods × two cells, with differing wall times per
  // "run" and different shard groupings.
  const auto reducer = make_reducer("sweep");
  const eval::Json a = reducer->reduce(
      manifest, {shard_result({make_row("fsa-l0", 1, 8, 3, 0, 0.5)}),
                 shard_result({make_row("fsa-l0", 2, 12, 3, 1, 1.5)}),
                 shard_result({make_row("gda", 1, 8, 3, 2, 2.5)}),
                 shard_result({make_row("gda", 2, 12, 3, 3, 3.5)})});
  const eval::Json b = reducer->reduce(
      manifest, {shard_result({make_row("gda", 2, 12, 3, 3, 9.0),
                               make_row("fsa-l0", 1, 8, 3, 0, 8.0)}),
                 shard_result({}),
                 shard_result({make_row("gda", 1, 8, 3, 2, 7.0)}),
                 shard_result({make_row("fsa-l0", 2, 12, 3, 1, 6.0)})});
  EXPECT_EQ(a.dump(2), b.dump(2));  // byte-for-byte, wall times scrubbed

  // Canonical order: keyed by (method, surface, S, R, seed), index last.
  const auto& rows = a.at("rows").items();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].get_string("method", ""), "fsa-l0");
  EXPECT_EQ(rows[0].get_int("S", 0), 1);
  EXPECT_EQ(rows[1].get_string("method", ""), "fsa-l0");
  EXPECT_EQ(rows[1].get_int("S", 0), 2);
  EXPECT_EQ(rows[2].get_string("method", ""), "gda");
  for (const auto& row : rows) EXPECT_EQ(row.get_number("seconds", -1.0), 0.0);
}

TEST(Reducer, UnknownKindThrowsListingKnown) {
  try {
    (void)make_reducer("bogus");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("campaign"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("sweep"), std::string::npos);
  }
}

// ---- sweep jobs on the blob substrate ----------------------------------------

struct BlobFixture {
  models::ZooModel model;
  std::string cache_dir;

  BlobFixture() {
    cache_dir = ::testing::TempDir() + "fsa_dist_blobs";
    fs::remove_all(cache_dir);
    model.name = "blobs";
    model.net = testutil::make_blob_net(6);
    model.train = testutil::make_blobs(600, 21);
    model.test = testutil::make_blobs(300, 22);
    model.attack_pool = testutil::make_blobs(400, 23);
    model.test_accuracy = testutil::train_blob_net(model.net, model.train, model.test);
  }
};

BlobFixture& blob_fixture() {
  static BlobFixture f;
  return f;
}

std::vector<engine::SweepSpec> blob_specs() {
  engine::Sweep sweep;
  sweep.methods({"fsa-l0", "gda"}).layers({"fc2"}).sr_pairs({{1, 8}, {2, 12}}).seeds({3});
  return sweep.build();
}

TEST(SweepJob, ShardedRunReducesBitwiseIdenticalToSingleShard) {
  auto& f = blob_fixture();
  Scratch scratch("fsa_dist_sweepjob");
  const std::vector<engine::SweepSpec> specs = blob_specs();
  const eval::Json manifest = sweep_manifest("blobs", "blocked", specs);
  ASSERT_EQ(manifest.get_int("shards", 0), static_cast<std::int64_t>(specs.size()));

  // N shards, each solved by its own worker entry (fresh runner = fresh
  // process-local caches), vs ONE worker entry solving a single-shard
  // manifest of the same specs.
  const JobDir sharded = create_sweep_job(scratch.sub("sharded"), manifest);
  for (int s = 0; s < sharded.shards(); ++s) {
    engine::SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
    sharded.write_result(s, run_sweep_shard(manifest, s, runner));
  }

  eval::Json one = eval::Json::object();  // single-shard manifest, same specs
  one.set("kind", eval::Json::string("sweep"));
  one.set("dataset", eval::Json::string("blobs"));
  one.set("backend", eval::Json::string("blocked"));
  one.set("shards", eval::Json::number(std::int64_t{1}));
  {
    eval::Json arr = eval::Json::array();
    for (const auto& s : specs) arr.push_back(s.to_json());
    one.set("specs", std::move(arr));
  }
  const JobDir single = create_sweep_job(scratch.sub("single"), one);
  {
    engine::SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
    single.write_result(0, run_sweep_shard(one, 0, runner));
  }

  const eval::Json sharded_reduced = reduce_job(sharded);
  const eval::Json single_reduced = reduce_job(single);
  ASSERT_EQ(sharded_reduced.at("rows").size(), specs.size());
  // The kind/dataset/backend/rows bytes must match exactly; `shards` is
  // the one field that legitimately differs, so compare rows directly.
  EXPECT_EQ(sharded_reduced.at("rows").items().size(), single_reduced.at("rows").items().size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(sharded_reduced.at("rows").at(i).dump(2), single_reduced.at("rows").at(i).dump(2))
        << "row " << i;

  // Rows carry real solves, canonically ordered and scrubbed.
  for (const auto& row : sharded_reduced.at("rows").items()) {
    EXPECT_GT(row.get_int("l0", 0), 0);
    EXPECT_EQ(row.get_number("seconds", -1.0), 0.0);
  }
  engine::SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
  EXPECT_THROW((void)run_sweep_shard(manifest, static_cast<int>(specs.size()), runner),
               std::out_of_range);
  EXPECT_THROW((void)run_sweep_shard(manifest, -1, runner), std::out_of_range);
}

// ---- telemetry byte-identity -------------------------------------------------

/// Restores the process-global observability state on scope exit.
struct ObsGuard {
  ~ObsGuard() {
    obs::set_trace_enabled(false);
    obs::set_metrics_enabled(false);
    obs::clear_spans();
  }
};

/// The reduced document must not contain a single byte of telemetry: the
/// tracer records spans, ADMM records convergence traces, the registry
/// ticks counters — and reduced.json for sweep, arena, and campaign jobs
/// still comes out bitwise identical to a run with everything off.
TEST(Telemetry, ReducedBytesIdenticalWithTraceAndMetricsOnVsOff) {
  auto& f = blob_fixture();
  Scratch scratch("fsa_dist_telemetry_identity");
  ObsGuard obs_guard;

  const auto run_all = [&](const std::string& tag) {
    std::map<std::string, std::string> reduced;
    // Fresh per-run row cache: a shared cache would satisfy the "on" run
    // from rows the "off" run computed and the solver would never execute
    // with tracing live — exactly the path this test must exercise.
    const std::string cache = scratch.sub("cache_" + tag);

    const eval::Json sweep_m = sweep_manifest("blobs", "blocked", blob_specs());
    const JobDir sweep_job = create_sweep_job(scratch.sub("sweep_" + tag), sweep_m);
    for (int s = 0; s < sweep_job.shards(); ++s) {
      engine::SweepRunner runner(f.model, cache, /*verbose=*/false);
      sweep_job.write_result(s, run_sweep_shard(sweep_m, s, runner));
    }
    reduced["sweep"] = reduce_job(sweep_job).dump(2);

    std::vector<engine::SweepSpec> specs = blob_specs();
    for (engine::SweepSpec& s : specs) s.defense = defense::parse_defense("range");
    const eval::Json arena_m = arena_manifest("blobs", "blocked", specs);
    const JobDir arena_job =
        JobDir::create(scratch.sub("arena_" + tag), "arena",
                       static_cast<int>(arena_m.get_int("shards", 0)), arena_m);
    for (int s = 0; s < arena_job.shards(); ++s) {
      engine::SweepRunner runner(f.model, cache, /*verbose=*/false);
      arena_job.write_result(s, run_sweep_shard(arena_m, s, runner));
    }
    reduced["arena"] = reduce_job(arena_job).dump(2);

    const faultsim::CampaignPlanner planner("laser", 3, 7);
    const JobDir camp_job =
        create_campaign_job(scratch.sub("camp_" + tag), planner, test_plan(),
                            faultsim::MemoryLayout{});
    for (int s = 0; s < camp_job.shards(); ++s)
      camp_job.write_result(s, run_campaign_shard(camp_job.manifest(), s));
    reduced["campaign"] = reduce_job(camp_job).dump(2);
    return reduced;
  };

  const auto off = run_all("off");
  obs::set_trace_enabled(true);
  obs::set_metrics_enabled(true);
  const auto on = run_all("on");

  EXPECT_EQ(off.at("sweep"), on.at("sweep"));
  EXPECT_EQ(off.at("arena"), on.at("arena"));
  EXPECT_EQ(off.at("campaign"), on.at("campaign"));

  // Identity is a scrub, not an accident: with tracing on the SHARD rows
  // carry the ADMM convergence block (the fsa solver records it), and the
  // reducer strips it before the canonical document forms.
  const JobDir traced = JobDir::open(scratch.sub("sweep_on"));
  bool saw_convergence = false;
  for (int s = 0; s < traced.shards(); ++s) {
    const eval::Json shard_result = traced.result(s);  // keep alive across the loop
    for (const eval::Json& row : shard_result.at("rows").items())
      if (row.has("convergence")) {
        saw_convergence = true;
        const eval::Json& c = row.at("convergence");
        EXPECT_GT(c.at("objective").items().size(), 0u);
        EXPECT_EQ(c.at("objective").items().size(), c.at("primal").items().size());
        EXPECT_EQ(c.at("objective").items().size(), c.at("dual").items().size());
      }
  }
  EXPECT_TRUE(saw_convergence);
  const eval::Json reduced_on = eval::Json::parse(on.at("sweep"));
  for (const eval::Json& row : reduced_on.at("rows").items())
    EXPECT_FALSE(row.has("convergence"));
}

TEST(SweepSpecJson, RoundTripsAllDeclarativeFields) {
  engine::SweepSpec spec;
  spec.method = "gda";
  spec.layers = {"fc1", "fc2"};
  spec.weights = true;
  spec.biases = false;
  spec.S = 3;
  spec.R = 17;
  spec.seed = 0xDEADBEEFCAFE1234ULL;  // > 2^53: must survive via string
  spec.policy = core::TargetPolicy::kNextLabel;
  spec.tag = "ablation-a";
  spec.measure_accuracy = false;
  engine::CampaignConfig cfg;
  cfg.injectors = {"laser", "clock-glitch"};
  cfg.shards = 5;
  cfg.seed = 0xFFFFFFFFFFFFFFFFULL;
  cfg.format = faultsim::StorageFormat::kBfloat16;
  cfg.layout.base_address = 0xFFFF000000000000ULL;
  cfg.layout.row_bytes = 4096;
  spec.campaign = cfg;

  const engine::SweepSpec back =
      engine::SweepSpec::from_json(eval::Json::parse(spec.to_json().dump(2)));
  EXPECT_EQ(back.method, spec.method);
  EXPECT_EQ(back.layers, spec.layers);
  EXPECT_EQ(back.weights, spec.weights);
  EXPECT_EQ(back.biases, spec.biases);
  EXPECT_EQ(back.S, spec.S);
  EXPECT_EQ(back.R, spec.R);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.policy, spec.policy);
  EXPECT_EQ(back.tag, spec.tag);
  EXPECT_EQ(back.measure_accuracy, spec.measure_accuracy);
  ASSERT_TRUE(back.campaign.has_value());
  EXPECT_EQ(back.campaign->injectors, cfg.injectors);
  EXPECT_EQ(back.campaign->shards, cfg.shards);
  EXPECT_EQ(back.campaign->seed, cfg.seed);
  EXPECT_EQ(back.campaign->format, cfg.format);
  EXPECT_EQ(back.campaign->layout.base_address, cfg.layout.base_address);
  EXPECT_EQ(back.campaign->layout.row_bytes, cfg.layout.row_bytes);

  // Pre-configured attacker overrides cannot cross a process boundary.
  engine::SweepSpec with_attacker;
  with_attacker.attacker = engine::make_attacker("gda");
  EXPECT_THROW((void)with_attacker.to_json(), std::invalid_argument);
}

// ---- injector calibration profiles -------------------------------------------

TEST(InjectorProfile, OverridesParametersAndEmbedsIntoManifests) {
  ProfileGuard guard;
  const faultsim::BitFlipPlan plan = test_plan();
  const faultsim::MemoryLayout layout;
  const double default_cost = faultsim::make_injector("laser")->plan_cost(plan, layout);

  eval::Json profile = eval::Json::parse(R"({
    "name": "test-bench",
    "injectors": { "laser": { "locate_seconds": 1000.0 } }
  })");
  faultsim::load_injector_profile(profile);
  ASSERT_NE(faultsim::active_injector_profile(), nullptr);
  const double calibrated_cost = faultsim::make_injector("laser")->plan_cost(plan, layout);
  EXPECT_GT(calibrated_cost, default_cost * 10.0);  // 20 s → 1000 s per locate

  // The planner embeds the profile, so a shard worker in a FRESH process
  // (simulated here by clearing first) replays the calibration exactly.
  const faultsim::CampaignPlanner planner("laser", 2, 7);
  const eval::Json manifest = planner.manifest(plan, layout);
  ASSERT_TRUE(manifest.has("injector_profile"));
  faultsim::clear_injector_profile();
  const eval::Json shard0 = run_campaign_shard(manifest, 0);
  const eval::Json shard1 = run_campaign_shard(manifest, 1);
  const faultsim::InjectorPtr calibrated = faultsim::make_injector("laser");  // re-registered
  const faultsim::CampaignReport merged =
      calibrated->merge({faultsim::CampaignReport::from_json(shard0.at("report")),
                         faultsim::CampaignReport::from_json(shard1.at("report"))});
  EXPECT_EQ(merged.seconds,
            calibrated->cost_seconds(merged));  // costed with locate_seconds = 1000
  EXPECT_GT(merged.seconds, default_cost * 10.0);
}

TEST(InjectorProfile, RejectsUnknownInjectorsAndParameters) {
  ProfileGuard guard;
  EXPECT_THROW(
      faultsim::load_injector_profile(eval::Json::parse(R"({"injectors":{"emp":{"x":1}}})")),
      std::invalid_argument);
  EXPECT_THROW(faultsim::load_injector_profile(
                   eval::Json::parse(R"({"injectors":{"laser":{"locate_secondz":1}}})")),
               std::invalid_argument);
  EXPECT_THROW(faultsim::load_injector_profile(eval::Json::parse(R"({"injectors":{}})")),
               std::invalid_argument);
  EXPECT_THROW(faultsim::load_injector_profile(eval::Json::parse(R"({"typo":{}})")),
               std::invalid_argument);
  // A rejected profile must not have been half-applied.
  EXPECT_EQ(faultsim::active_injector_profile(), nullptr);
}

TEST(InjectorProfile, ShippedProfilesParseAndLoad) {
  ProfileGuard guard;
  for (const char* name : {"ddr3_rowhammer.json", "laser_bench.json"}) {
    const fs::path repo_profile = fs::path(__FILE__).parent_path().parent_path() / "profiles" / name;
    if (!fs::exists(repo_profile)) GTEST_SKIP() << "profiles/ not present in this checkout";
    EXPECT_NO_THROW(faultsim::load_injector_profile_file(repo_profile.string())) << name;
  }
}

// ---- run_job: local lease workers over real child processes -----------------

/// run_job starts THIS binary as `dist serve --once` lease workers, which
/// exec it again per claimed shard (see main() at the bottom). `extra`
/// rides on every lease worker's argv, and its daemon mode forwards the
/// crash-injection flags to the shard workers.
RunJobOptions quiet_run(int workers, std::vector<std::string> extra = {}) {
  RunJobOptions opts;
  opts.workers = workers;
  opts.verbose = false;
  opts.extra_argv = std::move(extra);
  return opts;
}

/// Files under <job>/leases/: claims and reclaim debris alike.
int lease_files(const JobDir& job) {
  const fs::path dir = fs::path(job.path()) / "leases";
  if (!fs::exists(dir)) return 0;
  return static_cast<int>(std::distance(fs::directory_iterator(dir), fs::directory_iterator{}));
}

/// True when every child this process started has been reaped.
bool no_children_left() { return ::waitpid(-1, nullptr, WNOHANG) < 0 && errno == ECHILD; }

TEST(RunJob, ReducedBytesMatchTheInProcessOracleForAnyWorkerCount) {
  Scratch scratch("fsa_dist_procs");
  const faultsim::BitFlipPlan plan = test_plan();
  const faultsim::MemoryLayout layout;
  const int shards = 6;
  const std::string oracle =
      faultsim::CampaignRunner(shards, 7).run("rowhammer", plan, layout).to_json().dump(2);

  std::string baseline;
  for (const int workers : {1, 4, 8}) {
    const faultsim::CampaignPlanner planner("rowhammer", shards, 7);
    const JobDir job =
        create_campaign_job(scratch.sub("w" + std::to_string(workers)), planner, plan, layout);
    const eval::Json reduced = run_job(job, self_exe(), quiet_run(workers));
    // run_job wrote reduced.json too; the file and the return agree.
    EXPECT_EQ(read_json_file(job.reduced_path()).dump(2), reduced.dump(2));
    EXPECT_EQ(reduced.at("report").dump(2), oracle) << workers << " workers";
    if (baseline.empty())
      baseline = reduced.dump(2);
    else
      EXPECT_EQ(reduced.dump(2), baseline) << workers << " workers drifted";
    EXPECT_EQ(lease_files(job), 0) << "lease left behind at " << workers << " workers";
    EXPECT_TRUE(no_children_left()) << "a lease worker outlived run_job";
  }
}

TEST(RunJob, CrashedShardIsRetriedWithoutByteDrift) {
  Scratch scratch("fsa_dist_retry");
  const faultsim::BitFlipPlan plan = test_plan();
  const faultsim::MemoryLayout layout;
  const faultsim::CampaignPlanner planner("laser", 3, 7);
  const std::string want =
      run_job(create_campaign_job(scratch.sub("clean"), planner, plan, layout), self_exe(),
              quiet_run(2))
          .dump(2);

  // The first shard worker to start crashes (--fail-once marker file); the
  // lease policy re-runs its shard and the reduction must not move a byte.
  const JobDir flaky = create_campaign_job(scratch.sub("flaky"), planner, plan, layout);
  EXPECT_EQ(run_job(flaky, self_exe(), quiet_run(2, {"--fail-once", scratch.sub("marker")})).dump(2),
            want);
  EXPECT_TRUE(fs::exists(scratch.sub("marker"))) << "no worker crashed: nothing was retried";
  EXPECT_EQ(lease_files(flaky), 0);
  EXPECT_TRUE(no_children_left());
}

TEST(RunJob, PermanentFailureNamesTheShardAndItsLogAndTheJobResumes) {
  Scratch scratch("fsa_dist_fail");
  const faultsim::CampaignPlanner planner("laser", 2, 7);
  const JobDir job =
      create_campaign_job(scratch.sub("job"), planner, test_plan(), faultsim::MemoryLayout{});
  try {
    (void)run_job(job, self_exe(), quiet_run(2, {"--fail-always"}));
    FAIL() << "expected a missing-shard error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    for (int s = 0; s < 2; ++s) {
      EXPECT_NE(what.find("shard " + std::to_string(s)), std::string::npos) << what;
      EXPECT_NE(what.find(job.log_path(s)), std::string::npos) << what;
    }
  }
  EXPECT_EQ(lease_files(job), 0) << "failed runs must release their leases";
  EXPECT_TRUE(no_children_left());
  // Resume after the bug is "fixed": the missing shards run and reduce.
  const eval::Json reduced = run_job(job, self_exe(), quiet_run(2));
  EXPECT_EQ(reduced.get_string("kind", ""), "campaign");
  EXPECT_TRUE(job.status().missing.empty());
}

TEST(RunJob, LeavesLiveForeignLeasesAloneAndReclaimsStaleOnes) {
  Scratch scratch("fsa_dist_run_leases");
  const faultsim::BitFlipPlan plan = test_plan();
  const faultsim::MemoryLayout layout;
  const faultsim::CampaignPlanner planner("laser", 2, 7);
  const std::string want =
      run_job(create_campaign_job(scratch.sub("clean"), planner, plan, layout), self_exe(),
              quiet_run(2))
          .dump(2);

  // A live cluster worker elsewhere holds shard 0: run_job must not run it
  // a second time, and its error names the shard and the holder.
  const JobDir job = create_campaign_job(scratch.sub("job"), planner, plan, layout);
  ASSERT_TRUE(try_claim_lease(job.lease_path(0), make_lease("other-worker", lease_now_ms())));
  try {
    (void)run_job(job, self_exe(), quiet_run(2));
    FAIL() << "expected a missing-shard error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0 (log " + job.log_path(0) + ", leased by other-worker"),
              std::string::npos)
        << what;
  }
  EXPECT_FALSE(job.has_result(0));
  EXPECT_TRUE(job.has_result(1));

  // The holder dies and its heartbeat goes stale: the next run_job
  // reclaims the shard and reduces to the clean run's bytes.
  write_json_atomic(job.lease_path(0),
                    make_lease("other-worker", lease_now_ms() - 120000).to_json());
  EXPECT_EQ(run_job(job, self_exe(), quiet_run(2)).dump(2), want);
  EXPECT_EQ(lease_files(job), 0);
  EXPECT_TRUE(no_children_left());
}

TEST(RunJob, TempJobIsRemovedOnSuccessAndNamedOnFailure) {
  // The CLI's --workers mode without --job runs in a throwaway directory.
  // Success must remove it; a permanent failure must RETAIN it (the logs
  // are the only diagnosis trail) and name the retained path in the
  // error, so the temp directory never leaks silently.
  Scratch scratch("fsa_dist_tempjob");
  const faultsim::CampaignPlanner planner("laser", 2, 7);
  const faultsim::BitFlipPlan plan = test_plan();

  const std::string ok_dir = scratch.sub("ok");
  const JobDir ok = create_campaign_job(ok_dir, planner, plan, faultsim::MemoryLayout{});
  const eval::Json reduced = run_temp_job(ok, self_exe(), quiet_run(2));
  EXPECT_EQ(reduced.get_string("kind", ""), "campaign");
  EXPECT_FALSE(fs::exists(ok_dir)) << "successful temp job must clean up after itself";

  const std::string bad_dir = scratch.sub("bad");
  const JobDir bad = create_campaign_job(bad_dir, planner, plan, faultsim::MemoryLayout{});
  try {
    (void)run_temp_job(bad, self_exe(), quiet_run(2, {"--fail-always"}));
    FAIL() << "expected a missing-shard error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("retained at " + bad_dir), std::string::npos) << what;
    EXPECT_NE(what.find("dist run --job"), std::string::npos) << what;
  }
  EXPECT_TRUE(fs::exists(bad_dir)) << "failed temp job must be retained for diagnosis";
  EXPECT_TRUE(fs::exists(bad.log_path(0))) << "retained job keeps its worker logs";
}

TEST(RunJob, RejectsNonPositiveWorkerCount) {
  Scratch scratch("fsa_dist_run_workers");
  const JobDir job = create_campaign_job(scratch.sub("job"), faultsim::CampaignPlanner("laser", 1, 7),
                                         test_plan(), faultsim::MemoryLayout{});
  EXPECT_THROW((void)run_job(job, self_exe(), quiet_run(0)), std::invalid_argument);
  EXPECT_EQ(job.status().missing, (std::vector<int>{0})) << "nothing may run on a bad config";
}

// ---- leases ------------------------------------------------------------------

TEST(Lease, ClaimIsExclusiveAndRoundTrips) {
  Scratch scratch("fsa_dist_lease");
  const std::string path = scratch.sub("shard_00000.lease");
  const std::string owner = lease_owner_id();
  ASSERT_TRUE(try_claim_lease(path, make_lease(owner, 1000)));
  EXPECT_FALSE(try_claim_lease(path, make_lease("someone-else", 2000)));  // O_EXCL lost

  const auto info = read_lease(path);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->owner, owner);
  EXPECT_EQ(info->pid, ::getpid());
  EXPECT_EQ(info->created_ms, 1000);
  EXPECT_EQ(info->heartbeat_ms, 1000);
  EXPECT_FALSE(read_lease(scratch.sub("absent.lease")).has_value());

  // Renewal bumps the heartbeat for the owner, refuses for anyone else.
  EXPECT_TRUE(renew_lease(path, owner, 5000));
  EXPECT_EQ(read_lease(path)->heartbeat_ms, 5000);
  EXPECT_FALSE(renew_lease(path, "someone-else", 9000));
  EXPECT_EQ(read_lease(path)->heartbeat_ms, 5000);

  // Release is owner-guarded too: a stranger's release is a no-op.
  release_lease(path, "someone-else");
  EXPECT_TRUE(read_lease(path).has_value());
  release_lease(path, owner);
  EXPECT_FALSE(read_lease(path).has_value());
}

TEST(Lease, ExpiryReclaimAndCorruptLeases) {
  Scratch scratch("fsa_dist_lease_expiry");
  LeaseInfo info = make_lease("w1", 10000);
  EXPECT_FALSE(lease_expired(info, 1000, 10500));  // inside the window
  EXPECT_FALSE(lease_expired(info, 1000, 9000));   // future heartbeat = clock skew, alive
  EXPECT_TRUE(lease_expired(info, 1000, 11001));   // one past the window

  // Reclaim is single-winner: the rename arbitration admits exactly one.
  const std::string path = scratch.sub("stale.lease");
  ASSERT_TRUE(try_claim_lease(path, info));
  EXPECT_TRUE(try_reclaim_lease(path, "w2"));
  EXPECT_FALSE(try_reclaim_lease(path, "w3"));  // already gone
  EXPECT_FALSE(read_lease(path).has_value());
  // The loser's rename target never lingers.
  EXPECT_FALSE(fs::exists(scratch.sub("stale.lease.reclaim.w2")));

  // A claimer killed between O_EXCL create and body write leaves an empty
  // or garbage lease: it must parse to heartbeat 0 = instantly reclaimable.
  const std::string corrupt = scratch.sub("corrupt.lease");
  { std::ofstream os(corrupt); os << "{not json"; }
  const auto parsed = read_lease(corrupt);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->heartbeat_ms, 0);
  EXPECT_TRUE(lease_expired(*parsed, 1000, lease_now_ms()));
  EXPECT_TRUE(try_reclaim_lease(corrupt, "w4"));
}

// ---- cost-aware scheduling ---------------------------------------------------

TEST(Scheduler, LongestFirstIsStableAndTolerant) {
  const std::vector<double> costs = {1.0, 5.0, 2.0, 5.0};
  EXPECT_EQ(schedule_longest_first({0, 1, 2, 3}, costs), (std::vector<int>{1, 3, 2, 0}));
  // All-zero costs (legacy manifests) leave the input order intact.
  EXPECT_EQ(schedule_longest_first({2, 0, 1}, {0.0, 0.0, 0.0}), (std::vector<int>{2, 0, 1}));
  // Indices beyond the cost table count as zero instead of faulting.
  EXPECT_EQ(schedule_longest_first({5, 1}, costs), (std::vector<int>{1, 5}));
}

TEST(Scheduler, ManifestsCarryPerShardCosts) {
  // Campaign manifests price each shard through the injector cost model.
  const faultsim::BitFlipPlan plan = test_plan();
  const faultsim::MemoryLayout layout;
  const faultsim::CampaignPlanner planner("rowhammer", 5, 7);
  const eval::Json manifest = planner.manifest(plan, layout);
  const std::vector<double> costs = manifest_shard_costs(manifest);
  ASSERT_EQ(costs.size(), 5u);
  double sum = 0.0;
  for (double c : costs) {
    EXPECT_GE(c, 0.0);
    sum += c;
  }
  // Rowhammer's model is linear in the flip counters, so the shard costs
  // partition the whole-plan estimate.
  EXPECT_NEAR(sum, manifest.get_number("estimated_seconds", -1.0), 1e-9 * sum);

  // And the per-shard price matches pricing the slice directly.
  const faultsim::InjectorPtr inj = faultsim::make_injector("rowhammer");
  const auto shards = faultsim::CampaignPlanner::shards_from_manifest(manifest);
  for (std::size_t s = 0; s < shards.size(); ++s)
    EXPECT_DOUBLE_EQ(costs[s], faultsim::shard_cost(*inj, shards[s], layout)) << "shard " << s;

  // Sweep manifests carry the S*R work proxy.
  const eval::Json sweep = sweep_manifest("blobs", "blocked", blob_specs());
  const std::vector<double> sweep_costs = manifest_shard_costs(sweep);
  ASSERT_EQ(sweep_costs.size(), blob_specs().size());
  for (double c : sweep_costs) EXPECT_GT(c, 0.0);

  // A manifest without the array degrades to all-zero (index order).
  eval::Json legacy = eval::Json::object();
  legacy.set("shards", eval::Json::number(std::int64_t{3}));
  EXPECT_EQ(manifest_shard_costs(legacy), (std::vector<double>{0.0, 0.0, 0.0}));
}

// ---- corrupt-result quarantine & tmp sweep -----------------------------------

TEST(JobDir, CorruptResultIsQuarantinedAndReRun) {
  Scratch scratch("fsa_dist_quarantine");
  const faultsim::CampaignPlanner planner("laser", 3, 7);
  const JobDir job =
      create_campaign_job(scratch.sub("job"), planner, test_plan(), faultsim::MemoryLayout{});
  RunJobOptions opts;
  opts.workers = 2;
  opts.verbose = false;
  const std::string want = run_job(job, self_exe(), opts).dump(2);

  // Corrupt shard 1's result outside the atomic write path (truncated junk,
  // the way a torn copy or fs corruption would leave it).
  { std::ofstream os(job.result_path(1), std::ios::trunc); os << "{\"kind\": \"camp"; }
  const std::vector<int> quarantined = job.validate_results();
  EXPECT_EQ(quarantined, (std::vector<int>{1}));
  EXPECT_FALSE(job.has_result(1));  // back in the missing set
  EXPECT_TRUE(fs::exists(job.result_path(1) + ".bad"));

  // run_job re-executes exactly the quarantined shard and the reduction
  // comes back byte-identical.
  EXPECT_EQ(run_job(job, self_exe(), opts).dump(2), want);
  EXPECT_TRUE(job.has_result(1));

  // reduce_job also quarantines on its own rather than aborting the job.
  { std::ofstream os(job.result_path(0), std::ios::trunc); os << ""; }
  EXPECT_THROW((void)reduce_job(job), std::runtime_error);  // now reported missing
  EXPECT_TRUE(fs::exists(job.result_path(0) + ".bad"));
  EXPECT_EQ(run_job(job, self_exe(), opts).dump(2), want);
}

TEST(JobDir, OpenSweepsOnlyStaleOrphanedTmpFiles) {
  Scratch scratch("fsa_dist_tmpsweep");
  eval::Json manifest = eval::Json::object();
  manifest.set("shards", eval::Json::number(std::int64_t{1}));
  { (void)JobDir::create(scratch.sub("job"), "campaign", 1, manifest); }

  const fs::path results = fs::path(scratch.sub("job")) / "results";
  const fs::path stale = results / "shard_00000.json.tmp.999";
  const fs::path fresh = results / "shard_00000.json.tmp.1000";
  { std::ofstream os(stale); os << "{}"; }
  { std::ofstream os(fresh); os << "{}"; }
  fs::last_write_time(stale, fs::file_time_type::clock::now() - std::chrono::hours(1));

  const JobDir job = JobDir::open(scratch.sub("job"));
  EXPECT_FALSE(fs::exists(stale));  // orphan from a crashed writer: swept
  EXPECT_TRUE(fs::exists(fresh));   // possibly a live writer: kept
  EXPECT_FALSE(job.has_result(0));  // tmp files never count as results
}

// ---- dist serve: coordinator-free workers ------------------------------------

ServeOptions serve_opts(const std::vector<std::string>& jobs) {
  ServeOptions opts;
  opts.jobs = jobs;
  opts.poll_ms = 20;
  opts.lease_expiry_ms = 5000;
  opts.once = true;
  opts.verbose = false;
  return opts;
}

TEST(Serve, DrainsMultipleJobsAndReduces) {
  Scratch scratch("fsa_dist_serve");
  const faultsim::BitFlipPlan plan = test_plan();
  const faultsim::MemoryLayout layout;
  const JobDir a = create_campaign_job(scratch.sub("a"),
                                       faultsim::CampaignPlanner("rowhammer", 4, 7), plan, layout);
  const JobDir b = create_campaign_job(scratch.sub("b"),
                                       faultsim::CampaignPlanner("laser", 3, 7), plan, layout);

  const ServeReport rep = serve(serve_opts({a.path(), b.path()}), self_exe());
  EXPECT_EQ(rep.shards_run, 7);
  EXPECT_EQ(rep.shards_failed, 0);
  EXPECT_EQ(rep.jobs_reduced, 2);
  EXPECT_FALSE(rep.drained);
  EXPECT_TRUE(a.status().missing.empty());
  EXPECT_TRUE(b.status().missing.empty());

  // The lease-claimed path cannot drift a byte from the in-process runner.
  EXPECT_EQ(read_json_file(a.reduced_path()).at("report").dump(2),
            faultsim::CampaignRunner(4, 7).run("rowhammer", plan, layout).to_json().dump(2));

  // A second serve over finished jobs finds nothing claimable and exits.
  const ServeReport again = serve(serve_opts({a.path(), b.path()}), self_exe());
  EXPECT_EQ(again.shards_run, 0);
  EXPECT_EQ(again.jobs_reduced, 0);  // reduced.json already present
}

TEST(Serve, RespectsLiveLeasesAndReclaimsStaleOnes) {
  Scratch scratch("fsa_dist_serve_lease");
  const JobDir job = create_campaign_job(
      scratch.sub("job"), faultsim::CampaignPlanner("laser", 2, 7), test_plan(),
      faultsim::MemoryLayout{});

  // Shard 0 is held by a live worker elsewhere: serve must leave it alone
  // (and --once exits rather than waiting for someone else's shard).
  ASSERT_TRUE(try_claim_lease(job.lease_path(0), make_lease("other-worker", lease_now_ms())));
  ServeOptions opts = serve_opts({job.path()});
  opts.lease_expiry_ms = 60000;
  const ServeReport rep = serve(opts, self_exe());
  EXPECT_EQ(rep.shards_run, 1);
  EXPECT_EQ(rep.shards_reclaimed, 0);
  EXPECT_TRUE(job.has_result(1));
  EXPECT_FALSE(job.has_result(0));

  // The holder dies (heartbeat goes stale): the next worker reclaims the
  // lease and finishes the job.
  write_json_atomic(job.lease_path(0), make_lease("other-worker", lease_now_ms() - 120000).to_json());
  opts.lease_expiry_ms = 1000;
  const ServeReport rescue = serve(opts, self_exe());
  EXPECT_EQ(rescue.shards_run, 1);
  EXPECT_GE(rescue.shards_reclaimed, 1);
  EXPECT_EQ(rescue.jobs_reduced, 1);
  EXPECT_TRUE(job.status().missing.empty());
  EXPECT_FALSE(read_lease(job.lease_path(0)).has_value());  // released after the run
}

TEST(Serve, DrainsLongestShardFirstAndHonorsMaxShards) {
  Scratch scratch("fsa_dist_serve_order");
  const JobDir job = create_campaign_job(
      scratch.sub("job"), faultsim::CampaignPlanner("rowhammer", 3, 7), test_plan(),
      faultsim::MemoryLayout{});
  // Doctor the manifest's cost table so shard 1 is the clear tail.
  eval::Json manifest = job.manifest();
  eval::Json costs = eval::Json::array();
  for (double c : {1.0, 50.0, 2.0}) costs.push_back(eval::Json::number(c));
  manifest.set("shard_costs", std::move(costs));
  write_json_atomic(job.manifest_path(), manifest);

  ServeOptions opts = serve_opts({job.path()});
  opts.max_shards = 1;
  const ServeReport rep = serve(opts, self_exe());
  EXPECT_EQ(rep.shards_run, 1);
  EXPECT_TRUE(job.has_result(1));  // the most expensive shard went first
  EXPECT_FALSE(job.has_result(0));
  EXPECT_FALSE(job.has_result(2));
}

TEST(Serve, GivesUpOnPoisonShardsAfterLocalFailures) {
  Scratch scratch("fsa_dist_serve_poison");
  const JobDir job = create_campaign_job(
      scratch.sub("job"), faultsim::CampaignPlanner("laser", 2, 7), test_plan(),
      faultsim::MemoryLayout{});
  ServeOptions opts = serve_opts({job.path()});
  opts.poll_ms = 10;
  opts.max_shard_failures = 2;
  opts.extra_argv = {"--fail-always"};
  const ServeReport rep = serve(opts, self_exe());  // must terminate, not spin
  EXPECT_EQ(rep.shards_run, 0);
  EXPECT_EQ(rep.shards_failed, 4);  // 2 shards x 2 local attempts
  EXPECT_FALSE(job.has_result(0));
  // Every failed run released its lease — the shards stay claimable for a
  // (healthier) worker elsewhere.
  EXPECT_FALSE(read_lease(job.lease_path(0)).has_value());
  EXPECT_FALSE(read_lease(job.lease_path(1)).has_value());
}

TEST(Serve, SigtermDrainsInFlightShardAndReleasesLeases) {
  Scratch scratch("fsa_dist_serve_drain");
  const JobDir job = create_campaign_job(
      scratch.sub("job"), faultsim::CampaignPlanner("laser", 3, 7), test_plan(),
      faultsim::MemoryLayout{});

  // A daemon-mode serve child whose shard workers are slow enough to be
  // caught in flight.
  const pid_t pid = spawn_worker({self_exe(), "dist", "serve", "--job", job.path(), "--poll-ms",
                                  "50", "--lease-expiry-ms", "60000", "--sleep-ms", "1500"},
                                 scratch.sub("serve.log"));
  // Wait for it to claim a shard...
  bool claimed = false;
  for (int i = 0; i < 400 && !claimed; ++i) {
    for (int s = 0; s < job.shards(); ++s) claimed = claimed || read_lease(job.lease_path(s));
    if (!claimed) std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_TRUE(claimed) << "serve child never claimed a shard";

  // ...then ask for a graceful drain: the in-flight shard must FINISH (its
  // result lands), every lease must be released, and nothing new claimed.
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_EQ(decode_exit_status(status), 0);

  int results = 0;
  for (int s = 0; s < job.shards(); ++s) {
    if (!job.has_result(s)) continue;
    ++results;
    EXPECT_NO_THROW((void)job.result(s)) << "shard " << s;  // complete, not torn
    EXPECT_FALSE(read_lease(job.lease_path(s)).has_value()) << "shard " << s;
  }
  EXPECT_GE(results, 1);  // the claimed shard was finished, never abandoned
  for (int s = 0; s < job.shards(); ++s)
    EXPECT_FALSE(read_lease(job.lease_path(s)).has_value()) << "abandoned lease on shard " << s;
}

TEST(Serve, RejectsUnusableOptions) {
  EXPECT_THROW((void)serve(ServeOptions{}, "exe"), std::invalid_argument);  // no jobs
  ServeOptions bad;
  bad.jobs = {"somewhere"};
  bad.poll_ms = 0;
  EXPECT_THROW((void)serve(bad, "exe"), std::invalid_argument);
  bad.poll_ms = 100;
  bad.heartbeat_ms = 500;
  bad.lease_expiry_ms = 500;  // heartbeat must be shorter than expiry
  EXPECT_THROW((void)serve(bad, "exe"), std::invalid_argument);
}

}  // namespace
}  // namespace fsa::dist

// ---- worker mode -------------------------------------------------------------
//
// run_job and the serve tests spawn THIS binary with fsa_cli's argv
// contracts: `<exe> dist serve --job ...` for a lease worker and
// `<exe> campaign --run-shard M --shard I --out F` for a shard worker.
// Detect those argv shapes before gtest sees them and run the matching
// entry instead. `--fail-once <marker>` / `--fail-always` inject
// deterministic crashes for the retry tests.
namespace {

int worker_main(int argc, char** argv) {
  using namespace fsa;
  try {
    const eval::Args args = eval::Args::parse(argc, argv);
    if (args.command() != "campaign") {
      std::fprintf(stderr, "dist_test worker: unsupported kind %s\n", args.command().c_str());
      return 2;
    }
    if (args.has_flag("fail-always")) {
      std::fprintf(stderr, "dist_test worker: injected permanent failure\n");
      return 3;
    }
    if (const std::string marker = args.get("fail-once", ""); !marker.empty()) {
      // First process to claim the marker crashes; O_EXCL makes the claim
      // atomic across concurrent workers.
      const int fd = ::open(marker.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
      if (fd >= 0) {
        ::close(fd);
        std::fprintf(stderr, "dist_test worker: injected one-time crash\n");
        return 3;
      }
    }
    // Artificial shard duration, so drain/kill tests can reliably catch a
    // worker in flight.
    if (const auto sleep_ms = args.get_int("sleep-ms", 0); sleep_ms > 0)
      ::usleep(static_cast<useconds_t>(sleep_ms) * 1000);
    const eval::Json manifest = dist::read_json_file(args.get("run-shard", ""));
    const auto shard = static_cast<int>(args.get_int("shard", -1));
    dist::write_json_atomic(args.get("out", ""), dist::run_campaign_shard(manifest, shard));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dist_test worker: %s\n", e.what());
    return 2;
  }
}

/// `<exe> dist serve --job dirs [--once] [--poll-ms N] [--lease-expiry-ms N]
/// [--sleep-ms N] [--fail-once M] [--fail-always]`: fsa_cli's `dist serve`
/// in a child process, with the last three forwarded to every shard
/// worker. run_job drives it exactly as it drives fsa_cli; the drain test
/// SIGTERMs it and inspects what it left behind.
int serve_mode_main(int argc, char** argv) {
  using namespace fsa;
  try {
    const eval::Args args = eval::Args::parse(argc, argv);
    dist::ServeOptions opts;
    opts.jobs = args.get_list("job", "");
    opts.poll_ms = static_cast<int>(args.get_int("poll-ms", 50));
    opts.lease_expiry_ms = static_cast<int>(args.get_int("lease-expiry-ms", opts.lease_expiry_ms));
    opts.once = args.has_flag("once");
    opts.verbose = true;  // the log is this process's flight recorder
    for (const std::string key : {"sleep-ms", "fail-once"})
      if (const std::string v = args.get(key, ""); !v.empty())
        opts.extra_argv.insert(opts.extra_argv.end(), {"--" + key, v});
    if (args.has_flag("fail-always")) opts.extra_argv.push_back("--fail-always");
    const dist::ServeReport rep = dist::serve(opts, dist::self_exe(argv[0]));
    return rep.shards_failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dist_test serve: %s\n", e.what());
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--run-shard") return worker_main(argc, argv);
  if (argc > 2 && std::string(argv[1]) == "dist" && std::string(argv[2]) == "serve")
    return serve_mode_main(argc - 1, argv + 1);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
