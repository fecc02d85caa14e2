// serve.h — the coordinator-free worker daemon behind `fsa_cli dist serve`.
//
// No process owns anything. Each worker polls one or more job
// directories, claims missing shards one at a time through O_EXCL lease
// files (lease.h), runs the claimed shard in a child process (the
// `--run-shard` worker contract) while renewing the lease heartbeat, and
// releases the lease after the result lands via the atomic tmp+rename
// path. Heterogeneous hosts drain one queue by simply running serve()
// against the same directory on shared storage; `dist run` and every
// `--workers N` command (run_job, jobs.h) are N local `--once` workers.
//
// Crash tolerance: a worker that dies — SIGKILL, power loss, a wedged
// host — simply stops renewing its heartbeat. Any other worker that finds
// a lease older than the expiry reclaims it and re-runs the shard, so
// progress never blocks on a human. Reclamation races at worst duplicate
// a shard's execution, and duplicates are harmless: shard work is a pure
// function of the manifest and results are written atomically, so the
// reduction cannot change by a byte.
//
// Scheduling is cost-aware: claimable shards are attempted longest-first
// by the manifest's per-shard `plan_cost` estimates (schedule_longest_
// first, jobs.h). Determinism is free — the reduction is order-independent
// — and draining the expensive shards first minimizes the tail.
#pragma once

#include <string>
#include <vector>

namespace fsa::dist {

struct ServeOptions {
  std::vector<std::string> jobs;  ///< job directories to poll (≥ 1)
  int poll_ms = 500;              ///< idle sleep between poll cycles
  int lease_expiry_ms = 15000;    ///< heartbeats older than this are reclaimed
  int heartbeat_ms = 0;           ///< renewal cadence; 0 → lease_expiry_ms / 4
  bool once = false;       ///< drain everything claimable, then exit (no idle wait)
  int max_shards = 0;      ///< stop after running this many shards (0 = unlimited)
  int max_shard_failures = 3;  ///< give up claiming a shard after this many local failures
  bool verbose = true;
  std::string owner;  ///< lease owner id; empty → fresh lease_owner_id()
  std::vector<std::string> extra_argv;  ///< appended to every worker argv (tests)
};

/// What one serve() lifetime did.
struct ServeReport {
  int shards_run = 0;        ///< results this worker produced
  int shards_failed = 0;     ///< claimed runs that exited nonzero (lease released)
  int shards_reclaimed = 0;  ///< stale leases taken over from dead workers
  int jobs_reduced = 0;      ///< reduced.json documents this worker wrote
  bool drained = false;      ///< exited on SIGTERM/SIGINT after finishing in flight
};

/// Run the serve loop: poll `options.jobs`, claim/run/release shards with
/// `exe` as the worker binary (the fsa_cli --run-shard contract), reduce
/// any job whose last result lands, and return when the options say so —
/// `once` drains and exits, `max_shards` caps the work, SIGTERM/SIGINT
/// drain gracefully (the in-flight shard is finished and its lease
/// released; nothing new is claimed). Without any of those, serves
/// forever. Throws std::invalid_argument on unusable options.
ServeReport serve(const ServeOptions& options, const std::string& exe);

}  // namespace fsa::dist
