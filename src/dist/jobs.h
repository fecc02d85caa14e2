// jobs.h — campaign & sweep jobs over the JobDir protocol.
//
// Ties the pieces together: planners produce self-contained manifests,
// create_*_job lays them out as job directories, run_*_shard is the pure
// worker entry a child process (fsa_cli's --run-shard mode, or any binary
// honoring the same contract) executes for one shard, and run_job is the
// coordinator — drain every missing shard through local lease workers,
// then reduce.
//
// Worker contract. run_job starts up to `workers` copies of
//
//   <exe> dist serve --job <job> --once --poll-ms 20
//
// (serve.h) in the coordinator's process group, each logging to
// <job>/logs/serve_<w>.log. Every lease worker claims missing shards
// through leases/ and execs, per claimed shard,
//
//   <exe> <kind> --run-shard <job>/manifest.json --shard <i>
//         --out <job>/results/shard_<i>.json
//
// with stdout/stderr appended to <job>/logs/shard_<i>.log. A shard worker
// needs nothing else: campaign manifests carry every flip, seed,
// attribution and calibration profile; sweep manifests carry every
// instance spec plus the dataset and backend names (the model itself
// comes from the shared FSA_CACHE_DIR, which the coordinator warms before
// spawning).
#pragma once

#include <string>
#include <vector>

#include "dist/job_dir.h"
#include "engine/sweep.h"
#include "faultsim/campaign.h"

namespace fsa::dist {

// ---- campaign jobs -----------------------------------------------------------

/// Lay `planner`'s manifest for `plan` out as a campaign job directory
/// with one result slot per planner shard.
JobDir create_campaign_job(const std::string& dir, const faultsim::CampaignPlanner& planner,
                           const faultsim::BitFlipPlan& plan,
                           const faultsim::MemoryLayout& layout);

/// Worker entry: simulate shard `index` of a campaign manifest (as
/// emitted by CampaignPlanner::manifest) and return the shard result
/// document. Applies the manifest's embedded calibration profile, so the
/// cost model matches the planning process exactly. Throws on an index
/// outside [0, manifest shards).
eval::Json run_campaign_shard(const eval::Json& manifest, int index);

// ---- sweep jobs --------------------------------------------------------------

/// Self-contained sweep manifest: one shard per instance spec, plus the
/// dataset/backend names workers need to rebuild the runner and the
/// active injector calibration profile (when one is loaded).
eval::Json sweep_manifest(const std::string& dataset, const std::string& backend,
                          const std::vector<engine::SweepSpec>& specs);

/// A sweep manifest with kind "arena": same shard layout and worker
/// behavior (run_sweep_shard serves both kinds), but the reducer also
/// aggregates the evasion frontier. Every spec must carry a defense.
eval::Json arena_manifest(const std::string& dataset, const std::string& backend,
                          const std::vector<engine::SweepSpec>& specs);

/// Lay a sweep manifest out as a job directory.
JobDir create_sweep_job(const std::string& dir, const eval::Json& manifest);

/// Worker entry: solve shard `index` of a sweep manifest on `runner` and
/// return the shard result document ({"rows": [...]}, each row an
/// AttackReport object carrying its global instance index). The caller
/// owns the runner so tests drive this with any model; fsa_cli builds one
/// from the manifest's dataset. Throws on an index outside the manifest.
eval::Json run_sweep_shard(const eval::Json& manifest, int index, engine::SweepRunner& runner);

/// Format a runner result's rows the way sweep shard results carry them:
/// one AttackReport object per row, plus "tag" (when the spec has one)
/// and the caller-supplied global instance index. Shared by
/// run_sweep_shard and the fsa_serve batched executor so both paths emit
/// byte-identical rows. `indices` must parallel `result.rows`.
eval::Json sweep_rows_json(const engine::SweepResult& result,
                           const std::vector<std::size_t>& indices);

/// Resume-or-create: open the job at `dir` if one exists — verifying its
/// kind AND that its stored manifest is byte-identical to `manifest`, so
/// a leftover directory from a DIFFERENT request can never be silently
/// re-served as the answer to this one — or lay out a fresh job. Throws
/// std::invalid_argument on a kind or manifest mismatch.
JobDir open_or_create_job(const std::string& dir, const std::string& kind,
                          const eval::Json& manifest);

// ---- scheduling --------------------------------------------------------------

/// Per-shard cost estimates from a manifest's "shard_costs" array
/// (campaign manifests carry Injector::plan_cost per shard; sweep
/// manifests a work proxy per spec). Legacy manifests without the array
/// get all-zero costs — every scheduling decision then degrades to plain
/// index order.
std::vector<double> manifest_shard_costs(const eval::Json& manifest);

/// Order `shards` longest-first by `costs` (stable: ties keep ascending
/// index order, and all-zero costs leave the input order intact). Running
/// the expensive shards first minimizes the drain tail under any worker
/// count; the reduction is order-independent, so this is free. Indices
/// outside `costs` count as zero cost.
std::vector<int> schedule_longest_first(std::vector<int> shards, const std::vector<double>& costs);

// ---- coordination ------------------------------------------------------------

struct RunJobOptions {
  int workers = 1;  ///< local lease workers (`dist serve --once`), >= 1
  bool verbose = true;
  std::vector<std::string> extra_argv;  ///< appended to every lease worker's argv (tests)
};

/// Coordinator: quarantine corrupt results, start min(`workers`, missing
/// shards) lease workers (the contract above) on `job`, wait for all of
/// them, then reduce, write reduced.json, and return the reduced
/// document. The lease workers share serve()'s policy: longest-first by
/// the manifest's shard costs, crash retry with backoff, local give-up on
/// a poison shard, and no shard that a live lease holds elsewhere is run.
/// Resume-friendly: completed shards are never re-run. Success is judged
/// by the job's result files, not by exit codes; when shards are still
/// missing it throws naming each one with its log and any live lease
/// owner. No child outlives the call: on an exception every lease worker
/// is asked to drain (SIGTERM) and reaped. Throws std::invalid_argument
/// on `workers` < 1.
eval::Json run_job(const JobDir& job, const std::string& exe, const RunJobOptions& options);

/// run_job for a THROWAWAY job directory (the CLI's `--workers` mode
/// without `--job`): on success the directory is removed; on failure it
/// is retained — its logs are the only diagnosis trail — and the error
/// is rethrown with the retained path appended, so an ad-hoc job can
/// never leak a nameless temp directory silently.
eval::Json run_temp_job(const JobDir& job, const std::string& exe, const RunJobOptions& options);

}  // namespace fsa::dist
