// worker_pool.h — fork/exec primitives for worker processes.
//
// Both process fan-outs in src/dist/ go through spawn_worker: run_job
// (jobs.h) starts `dist serve --once` lease workers on a job, and each
// serve() loop (serve.h) execs one `--run-shard` child per claimed shard.
// Children are fully described by their argv and inherit the caller's
// process group, so killing the group stops every descendant.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace fsa::dist {

/// Spawn one worker child: redirect stdout+stderr to `log` (append, parent
/// directories created), exec `argv` (argv[0] is the executable; a bare
/// name resolves via PATH). Returns the child pid; the child exits 127 on
/// exec failure. Safe to call from a multi-threaded process: everything
/// the child needs is built before fork().
pid_t spawn_worker(const std::vector<std::string>& argv, const std::string& log);

/// Collapse a waitpid status into one exit code: the child's own code,
/// 128+sig for a signal death, -1 for anything else.
int decode_exit_status(int status);

/// Absolute path of the running executable (/proc/self/exe when available,
/// else `argv0` resolved against the cwd) — what a process passes as the
/// worker argv[0] to fan SHARDS of its own job out to copies of itself.
std::string self_exe(const char* argv0 = nullptr);

}  // namespace fsa::dist
