#include "dist/jobs.h"

#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <system_error>

#include "dist/lease.h"
#include "dist/reducer.h"
#include "dist/worker_pool.h"
#include "faultsim/profile.h"

namespace fsa::dist {

namespace {

int manifest_shards(const eval::Json& manifest) {
  const int shards = static_cast<int>(manifest.get_int("shards", 0));
  if (shards < 1) throw std::runtime_error("dist: manifest has no valid \"shards\" count");
  return shards;
}

void check_shard_index(const eval::Json& manifest, int index) {
  const int shards = manifest_shards(manifest);
  if (index < 0 || index >= shards)
    throw std::out_of_range("dist: shard index " + std::to_string(index) +
                            " out of the manifest's range [0, " + std::to_string(shards) + ")");
}

/// Contiguous-slice ownership, the same formula CampaignPlanner uses:
/// item i of n belongs to shard i·K/n — depends only on (i, n, K), never
/// on which process asks.
std::size_t owner_of(std::size_t i, std::size_t n, int shards) {
  if (n == 0) return 0;
  return std::min(i * static_cast<std::size_t>(shards) / n,
                  static_cast<std::size_t>(shards) - 1);
}

}  // namespace

// ---- campaign jobs -----------------------------------------------------------

JobDir create_campaign_job(const std::string& dir, const faultsim::CampaignPlanner& planner,
                           const faultsim::BitFlipPlan& plan,
                           const faultsim::MemoryLayout& layout) {
  return JobDir::create(dir, "campaign", planner.shard_count(), planner.manifest(plan, layout));
}

eval::Json run_campaign_shard(const eval::Json& manifest, int index) {
  check_shard_index(manifest, index);
  if (manifest.has("injector_profile"))
    faultsim::load_injector_profile(manifest.at("injector_profile"));
  const std::vector<faultsim::CampaignShard> shards =
      faultsim::CampaignPlanner::shards_from_manifest(manifest);
  if (static_cast<int>(shards.size()) != manifest_shards(manifest))
    throw std::runtime_error("dist: manifest shard_list does not match its shard count");
  const faultsim::InjectorPtr injector =
      faultsim::make_injector(manifest.at("injector").as_string());
  // The layout only matters at planning time (row attribution is already
  // baked into every flip), so the default suffices here.
  const faultsim::CampaignReport report =
      injector->simulate_shard(shards[static_cast<std::size_t>(index)], faultsim::MemoryLayout{});

  eval::Json out = eval::Json::object();
  out.set("kind", eval::Json::string("campaign"));
  out.set("shard", eval::Json::number(static_cast<std::int64_t>(index)));
  out.set("report", report.to_json());
  return out;
}

// ---- sweep jobs --------------------------------------------------------------

eval::Json sweep_manifest(const std::string& dataset, const std::string& backend,
                          const std::vector<engine::SweepSpec>& specs) {
  if (specs.empty()) throw std::invalid_argument("dist: sweep manifest needs at least one spec");
  eval::Json j = eval::Json::object();
  j.set("kind", eval::Json::string("sweep"));
  j.set("dataset", eval::Json::string(dataset));
  j.set("backend", eval::Json::string(backend));
  // One shard per instance: worker-count invariance then needs no slicing
  // argument at all — every process count executes the same shard set.
  j.set("shards", eval::Json::number(static_cast<std::int64_t>(specs.size())));
  if (const eval::Json* profile = faultsim::active_injector_profile())
    j.set("injector_profile", *profile);
  eval::Json arr = eval::Json::array();
  eval::Json costs = eval::Json::array();
  for (const engine::SweepSpec& s : specs) {
    arr.push_back(s.to_json());
    // Work proxy for longest-first scheduling: the S·R budget dominates a
    // sweep instance's solve time. Only the ORDER matters, not the scale.
    costs.push_back(eval::Json::number(static_cast<double>(s.S) * static_cast<double>(s.R)));
  }
  j.set("specs", std::move(arr));
  j.set("shard_costs", std::move(costs));
  return j;
}

eval::Json arena_manifest(const std::string& dataset, const std::string& backend,
                          const std::vector<engine::SweepSpec>& specs) {
  for (const engine::SweepSpec& s : specs)
    if (!s.defense)
      throw std::invalid_argument("dist: arena manifest requires a defense on every spec");
  eval::Json j = sweep_manifest(dataset, backend, specs);
  j.set("kind", eval::Json::string("arena"));
  return j;
}

JobDir create_sweep_job(const std::string& dir, const eval::Json& manifest) {
  return JobDir::create(dir, "sweep", manifest_shards(manifest), manifest);
}

eval::Json run_sweep_shard(const eval::Json& manifest, int index, engine::SweepRunner& runner) {
  check_shard_index(manifest, index);
  if (manifest.has("injector_profile"))
    faultsim::load_injector_profile(manifest.at("injector_profile"));
  const int shards = manifest_shards(manifest);
  const auto& spec_list = manifest.at("specs").items();

  // This shard's contiguous slice of the instance list (the common case is
  // one instance per shard, but the formula supports coarser jobs).
  std::vector<engine::SweepSpec> specs;
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < spec_list.size(); ++i)
    if (owner_of(i, spec_list.size(), shards) == static_cast<std::size_t>(index)) {
      specs.push_back(engine::SweepSpec::from_json(spec_list[i]));
      indices.push_back(i);
    }

  eval::Json rows = eval::Json::array();
  if (!specs.empty()) rows = sweep_rows_json(runner.run(specs), indices);
  eval::Json out = eval::Json::object();
  // Arena jobs run the same worker path; the shard result echoes the
  // manifest's kind so the job directory stays self-describing.
  out.set("kind", eval::Json::string(manifest.get_string("kind", "sweep")));
  out.set("shard", eval::Json::number(static_cast<std::int64_t>(index)));
  out.set("rows", std::move(rows));
  return out;
}

eval::Json sweep_rows_json(const engine::SweepResult& result,
                           const std::vector<std::size_t>& indices) {
  if (result.rows.size() != indices.size())
    throw std::invalid_argument("dist: sweep_rows_json needs one index per row");
  eval::Json rows = eval::Json::array();
  for (std::size_t r = 0; r < result.rows.size(); ++r) {
    eval::Json row = result.rows[r].report.to_json();
    if (!result.rows[r].spec.tag.empty())
      row.set("tag", eval::Json::string(result.rows[r].spec.tag));
    row.set("index", eval::Json::number(static_cast<std::int64_t>(indices[r])));
    rows.push_back(std::move(row));
  }
  return rows;
}

JobDir open_or_create_job(const std::string& dir, const std::string& kind,
                          const eval::Json& manifest) {
  if (!JobDir::exists(dir)) return JobDir::create(dir, kind, manifest_shards(manifest), manifest);
  const JobDir job = JobDir::open(dir);
  if (job.kind() != kind)
    throw std::invalid_argument("dist: " + dir + " holds a " + job.kind() + " job, not a " +
                                kind);
  if (job.manifest().dump(2) != manifest.dump(2))
    throw std::invalid_argument(
        "dist: " + dir +
        " holds a different " + kind +
        " job (its manifest does not match this request) — remove the directory or pass a "
        "different --job to resume it with `dist run` instead");
  return job;
}

// ---- scheduling --------------------------------------------------------------

std::vector<double> manifest_shard_costs(const eval::Json& manifest) {
  const int shards = manifest_shards(manifest);
  std::vector<double> costs(static_cast<std::size_t>(shards), 0.0);
  if (!manifest.has("shard_costs")) return costs;  // legacy manifest: index order
  const auto& arr = manifest.at("shard_costs").items();
  for (std::size_t i = 0; i < arr.size() && i < costs.size(); ++i)
    costs[i] = arr[i].as_number();
  return costs;
}

std::vector<int> schedule_longest_first(std::vector<int> shards, const std::vector<double>& costs) {
  const auto cost_of = [&](int s) {
    return (s >= 0 && static_cast<std::size_t>(s) < costs.size()) ? costs[static_cast<std::size_t>(s)]
                                                                  : 0.0;
  };
  std::stable_sort(shards.begin(), shards.end(),
                   [&](int a, int b) { return cost_of(a) > cost_of(b); });
  return shards;
}

// ---- coordination ------------------------------------------------------------

namespace {

/// The lease workers run_job started. The destructor covers the exception
/// path: every worker still alive is asked to drain (SIGTERM finishes its
/// in-flight shard and releases the lease) and reaped, so neither a lease
/// worker nor a shard worker outlives the coordinator.
class LeaseWorkers {
 public:
  LeaseWorkers() = default;
  LeaseWorkers(const LeaseWorkers&) = delete;
  LeaseWorkers& operator=(const LeaseWorkers&) = delete;
  ~LeaseWorkers() {
    for (const pid_t pid : pids_) ::kill(pid, SIGTERM);
    wait();
  }

  void spawn(const std::vector<std::string>& argv, const std::string& log) {
    pids_.push_back(spawn_worker(argv, log));
  }

  /// Reap every worker. Exit codes carry no verdict: `dist serve` exits 1
  /// after any failed local attempt, even when a retry then succeeded.
  void wait() {
    for (const pid_t pid : pids_) {
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    pids_.clear();
  }

 private:
  std::vector<pid_t> pids_;
};

std::string missing_shards_error(const JobDir& job, const std::vector<int>& missing, int workers) {
  std::map<int, LeaseInfo> leases;
  for (auto& [shard, info] : list_leases(job)) leases[shard] = std::move(info);
  const std::int64_t now = lease_now_ms();
  std::string what = "dist: " + job.path() + ": " + std::to_string(missing.size()) + " of " +
                     std::to_string(job.shards()) + " shard(s) missing after " +
                     std::to_string(workers) + " lease worker(s) drained the job:";
  for (const int s : missing) {
    what += " shard " + std::to_string(s) + " (log " + job.log_path(s);
    if (const auto it = leases.find(s); it != leases.end())
      what += ", leased by " + (it->second.owner.empty() ? "(corrupt lease)" : it->second.owner) +
              ", heartbeat " + std::to_string(now - it->second.heartbeat_ms) + " ms ago";
    what += ");";
  }
  return what + " lease-worker logs: " + job.path() + "/logs/serve_*.log";
}

}  // namespace

eval::Json run_job(const JobDir& job, const std::string& exe, const RunJobOptions& options) {
  if (options.workers < 1)
    throw std::invalid_argument("dist: worker count must be >= 1, got " +
                                std::to_string(options.workers));
  job.validate_results();  // corrupt results -> .bad, shard back to missing
  if (const std::vector<int> missing = job.status().missing; !missing.empty()) {
    const int workers = std::min(options.workers, static_cast<int>(missing.size()));
    if (options.verbose)
      std::fprintf(stderr, "[dist] %s: %zu/%d shard(s) to run on %d lease worker(s)\n",
                   job.path().c_str(), missing.size(), job.shards(), workers);
    // A short poll: a --once worker that lost a claim race re-checks after
    // it instead of idling at serve's daemon default.
    std::vector<std::string> argv = {exe,    "dist", "serve",     "--job", job.path(),
                                     "--once", "--poll-ms", "20"};
    argv.insert(argv.end(), options.extra_argv.begin(), options.extra_argv.end());
    LeaseWorkers pool;
    for (int w = 0; w < workers; ++w)
      pool.spawn(argv, job.path() + "/logs/serve_" + std::to_string(w) + ".log");
    pool.wait();
    if (const std::vector<int> left = job.status().missing; !left.empty())
      throw std::runtime_error(missing_shards_error(job, left, workers));
  }
  if (options.verbose)
    std::fprintf(stderr, "[dist] %s: all %d shard result(s) present, reducing\n",
                 job.path().c_str(), job.shards());
  const eval::Json reduced = reduce_job(job);
  job.write_reduced(reduced);
  // Fold any per-shard telemetry sidecars (workers run with FSA_METRICS)
  // into <job>/telemetry.json — separate from reduced.json by contract.
  merge_job_telemetry(job);
  return reduced;
}

eval::Json run_temp_job(const JobDir& job, const std::string& exe, const RunJobOptions& options) {
  eval::Json reduced;
  try {
    reduced = run_job(job, exe, options);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(e.what()) + " — job directory retained at " +
                             job.path() + " (resume with `dist run --job " + job.path() +
                             "`, logs under " + job.path() + "/logs)");
  }
  std::error_code ec;
  std::filesystem::remove_all(job.path(), ec);  // best-effort: the reduction is in hand
  return reduced;
}

}  // namespace fsa::dist
