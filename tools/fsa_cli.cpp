// fsa_cli.cpp — command-line driver for the fault sneaking attack library.
//
// Subcommands:
//   info                          model/accuracy overview
//   methods                       list registered attack methods
//   backends                      list registered compute backends
//   injectors                     list registered fault injectors
//   defenses                      list registered defenses
//   attack    --dataset digits --layers fc3 --s 2 --r 100 --method fsa-l0
//             [--norm l0|l2|l1] [--backend reference|blocked|packed]
//             [--seed N] [--rho X] [--c X]
//             [--weights-only|--biases-only] [--save delta.bin]
//   sweep     --dataset digits --layers fc3 --method fsa-l0,gda
//             --s-list 1,2,4 --r-list 50,100 [--seeds 1,2] [--backend B]
//             [--with-campaign] [--injector I1,I2] [--shards K]
//             [--json out.json] [--csv out.csv] [--no-acc]
//   arena     --dataset digits --layers fc3 --method fsa-l0,fsa-l2-evasive
//             --defense checksum/64,range/201/0.10 --s-list 2 --r-list 100
//             [--seeds 1,2] [--with-campaign [--format bf16] ...]
//             [--json out.json] [--workers N ...]
//             | --run-shard manifest.json --shard I [--out result.json]
//   campaign  --dataset digits --layers fc3 --delta delta.bin
//             [--injector rowhammer,laser,clock-glitch] [--shards K]
//             [--seed N] [--manifest shards.json]
//             [--workers N [--job dir]]
//             | --run-shard manifest.json --shard I [--out result.json]
//   dist      run|reduce|status --job dir [--workers N]
//             | serve --job dir1[,dir2...] [--once] ...
//   audit     --dataset digits --layers fc3 --delta delta.bin
//
// `attack` solves one instance through the engine registry and prints the
// scorecard; `arena` crosses attack methods against deployed defenses
// (src/defense/, see docs/DEFENSE.md) and reduces the rows into the
// evasion frontier — `--defense` names parse strictly through the defense
// registry BEFORE any model loads; `sweep` expands method × S × R × seed
// and runs all instances
// concurrently on the thread pool (FSA_NUM_THREADS controls the worker
// count; results are identical for any value), and `--with-campaign`
// appends a hardware-campaign stage (δ → bit flips → sharded injector
// simulation) to every row; `campaign` lowers a saved δ to bit flips and
// runs the sharded campaign for each selected injector (campaign totals
// are bitwise identical for any --shards); `audit` runs the defender-view
// weight audit on a saved δ. `--backend` (default: FSA_BACKEND, else
// "blocked") selects the compute backend that every hot kernel routes
// through; `--injector` (default: FSA_INJECTOR, else per-command) selects
// fault injectors the same way — unknown names fail loudly listing the
// registry. `--injector-profile file.json` (default: FSA_INJECTOR_PROFILE)
// loads a calibration profile overriding injector cost-model parameters.
//
// Multi-process distribution (src/dist/, see docs/DIST.md): `--workers N`
// routes a campaign, sweep or arena through a job directory — the
// coordinator writes a self-contained manifest, starts N copies of this
// binary as `dist serve --once` lease workers, which claim shards by
// lease and exec one `--run-shard` child each (crash retry with backoff,
// per-shard logs), and reduces the shard results with the zero-drift
// reducer, so the reduced JSON is bitwise identical for ANY worker count.
// `dist run|reduce|status` operates on an existing job directory, which
// is the whole coordination protocol — put it on shared storage and run
// `dist serve` workers anywhere.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "backend/compute_backend.h"
#include "defense/defense.h"
#include "dist/jobs.h"
#include "dist/lease.h"
#include "dist/reducer.h"
#include "dist/serve.h"
#include "dist/worker_pool.h"
#include "serve/http.h"
#include "serve/service.h"
#include "serve/zoo.h"
#include "engine/arena.h"
#include "engine/attackers.h"
#include "engine/registry.h"
#include "engine/sweep.h"
#include "eval/args.h"
#include "eval/attack_bench.h"
#include "eval/detect.h"
#include "eval/table.h"
#include "faultsim/campaign.h"
#include "faultsim/profile.h"
#include "faultsim/quantize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/serialize.h"

namespace {

using namespace fsa;

/// argv[0], for re-executing this binary as a shard worker.
const char* g_argv0 = "fsa_cli";

int usage() {
  std::fputs(
      "usage: fsa_cli"
      " <info|methods|backends|injectors|defenses|attack|sweep|arena|campaign|dist|serve|eval|"
      "audit> [options]\n"
      "  info\n"
      "  methods\n"
      "  backends\n"
      "  injectors\n"
      "  defenses\n"
      "  attack   --dataset digits|objects --layers fc3[,fc2...] --s N --r N\n"
      "           [--method fsa-l0|fsa-l2|fsa-l1|gda|sba] [--norm l0|l2|l1]\n"
      "           [--backend reference|blocked|packed|auto] [--seed N] [--rho X] [--c X]\n"
      "           [--weights-only|--biases-only] [--save delta.bin] [--verbose]\n"
      "  sweep    --dataset D --layers L --s-list 1,2,4 --r-list 50,100\n"
      "           [--method M1,M2,...] [--seeds 1,2,...] [--norm l0|l2|l1]\n"
      "           [--backend reference|blocked|packed|auto]\n"
      "           [--with-campaign] [--injector I1,I2,...] [--shards K]\n"
      "           [--injector-profile file.json]\n"
      "           [--with-defense] [--defense name[/gran[/slack]]]\n"
      "           [--weights-only|--biases-only] [--json out.json] [--csv out.csv]\n"
      "           [--no-acc] [--quiet]\n"
      "           [--workers N [--job dir]]\n"
      "           | --run-shard manifest.json --shard I [--out result.json]\n"
      "  arena    --dataset D --layers L --s-list 2 --r-list 100\n"
      "           [--method fsa-l0,fsa-l2,fsa-l0-evasive,fsa-l2-evasive]\n"
      "           [--defense checksum/64,range/201/0.10,canary/32,c1+c2]\n"
      "           [--seeds 1,2,...] [--backend B] [--acc]\n"
      "           [--with-campaign] [--injector I1,...] [--shards K] [--format f32|bf16|f16|int8]\n"
      "           [--weights-only|--biases-only] [--json out.json] [--csv out.csv] [--quiet]\n"
      "           [--workers N [--job dir]]\n"
      "           | --run-shard manifest.json --shard I [--out result.json]\n"
      "  campaign --dataset D --layers L --delta delta.bin\n"
      "           [--injector rowhammer|laser|clock-glitch,...] [--shards K]\n"
      "           [--seed N] [--manifest shards.json] [--injector-profile file.json]\n"
      "           [--workers N [--job dir]]\n"
      "           | --run-shard manifest.json --shard I [--out result.json]\n"
      "  dist     run    --job dir [--workers N]\n"
      "           serve  --job dir1[,dir2...] [--poll-ms MS] [--lease-expiry-ms MS]\n"
      "                  [--heartbeat-ms MS] [--once] [--max-shards N] [--quiet]\n"
      "           reduce --job dir\n"
      "           status --job dir [--json]\n"
      "  serve    [--port P] [--threads N] [--max-batch B] [--max-delay-ms MS]\n"
      "           [--max-queue Q] [--executors E] [--datasets digits[,objects]]\n"
      "           [--warm-layers fc3[,fc2...]] [--backend B] [--once] [--quiet]\n"
      "  eval     --dataset D --layers L [--weights-only|--biases-only]\n"
      "           [--backend B] [--json out.json]\n"
      "  audit    --dataset D --layers L --delta delta.bin\n"
      "\n"
      "observability (docs/OBSERVABILITY.md): most commands also take\n"
      "  --trace [out.json]     span tracer on; Chrome-trace JSON written on exit\n"
      "  --metrics [out.json]   metric emission on; registry snapshot written on exit\n"
      "(FSA_TRACE / FSA_METRICS env enable collection without an output file;\n"
      " both are inherited by --workers shard children, which then write\n"
      " results/shard_NNNNN.telemetry.json sidecars merged into <job>/telemetry.json)\n",
      stderr);
  return 2;
}

/// Strictly positive integer option: present-but-zero (or negative) is an
/// error, not a silent default — `--shards 0` / `--workers 0` must fail
/// loudly before any model loads.
int positive_int(const eval::Args& args, const std::string& key, int fallback) {
  if (args.get(key, "").empty() && !args.has_flag(key)) return fallback;
  const auto v = args.get_int(key, fallback);
  if (v < 1)
    throw std::invalid_argument("--" + key + " must be >= 1, got " + args.get(key, "(none)"));
  return static_cast<int>(v);
}

/// Load the injector calibration profile, if one is selected:
/// --injector-profile wins, then FSA_INJECTOR_PROFILE. Re-registers the
/// profiled injectors so every later make_injector() — including the
/// sweep engine's campaign stage — uses the calibrated cost model; the
/// loaded document is embedded into campaign manifests so out-of-process
/// shard workers replay it exactly.
void apply_injector_profile(const eval::Args& args) {
  std::string path = args.get("injector-profile", "");
  if (path.empty())
    if (const char* env = std::getenv("FSA_INJECTOR_PROFILE"); env && env[0] != '\0') path = env;
  if (!path.empty()) faultsim::load_injector_profile_file(path);
}

/// Lease-worker options shared by campaign/sweep/arena `--workers` mode
/// and `dist run`.
dist::RunJobOptions worker_options(const eval::Args& args, bool verbose) {
  dist::RunJobOptions opts;
  opts.workers = positive_int(args, "workers", 1);
  opts.verbose = verbose;
  return opts;
}

/// Validate a worker-mode shard index against a manifest BEFORE anything
/// heavy (model load) happens.
int shard_index(const eval::Args& args, const eval::Json& manifest) {
  const int shards = static_cast<int>(manifest.get_int("shards", 0));
  if (shards < 1) throw std::invalid_argument("--run-shard: manifest has no valid shard count");
  const auto idx = args.get_int("shard", -1);
  if (idx < 0 || idx >= shards)
    throw std::invalid_argument("--shard " + args.get("shard", "(missing)") +
                                " out of the manifest's range [0, " + std::to_string(shards) +
                                ")");
  return static_cast<int>(idx);
}

/// Emit a shard result: --out (atomic, the JobDir contract) or stdout.
int emit_shard_result(const eval::Args& args, const eval::Json& result) {
  if (const std::string out = args.get("out", ""); !out.empty()) {
    dist::write_json_atomic(out, result);
    std::printf("shard result written to %s\n", out.c_str());
    // Metrics sidecar (FSA_METRICS inherited from the coordinator): a
    // registry snapshot NEXT TO the result — merged into the job's
    // telemetry.json, never into the result or the reduction.
    if (obs::metrics_enabled()) {
      const std::string suffix = ".json";
      const bool json_named = out.size() > suffix.size() &&
                              out.compare(out.size() - suffix.size(), suffix.size(), suffix) == 0;
      const std::string sidecar =
          (json_named ? out.substr(0, out.size() - suffix.size()) : out) + ".telemetry.json";
      dist::write_json_atomic(sidecar, obs::Registry::global().to_json());
      std::printf("telemetry sidecar written to %s\n", sidecar.c_str());
    }
  } else {
    std::printf("%s\n", result.dump(2).c_str());
  }
  return 0;
}

/// Job directory for --workers mode: --job resumes/creates at a chosen
/// path; otherwise a per-process temp dir (removed again on success).
std::string job_dir_root(const eval::Args& args, const std::string& kind, bool& temporary) {
  if (const std::string dir = args.get("job", ""); !dir.empty()) {
    temporary = false;
    return dir;
  }
  temporary = true;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("fsa_" + kind + "_job_" + std::to_string(::getpid()));
  return dir.string();
}

/// Default injector list: --injector wins, then FSA_INJECTOR, then
/// `fallback`. Names are validated against the registry (throws listing
/// the known injectors — same strict style as --backend).
std::vector<std::string> injector_list(const eval::Args& args, const std::string& fallback) {
  const char* env = std::getenv("FSA_INJECTOR");
  const std::string def = env && env[0] != '\0' ? env : fallback;
  std::vector<std::string> names = args.get_list("injector", def);
  for (const auto& name : names) (void)faultsim::make_injector(name);
  return names;
}

/// Weights/biases selection with conflict detection: `--weights-only
/// --biases-only` would silently select nothing, so it is an error.
std::pair<bool, bool> surface_flags(const eval::Args& args) {
  const bool weights_only = args.has_flag("weights-only");
  const bool biases_only = args.has_flag("biases-only");
  if (weights_only && biases_only)
    throw std::invalid_argument(
        "--weights-only and --biases-only conflict (omit both to attack weights AND biases)");
  return {!biases_only, !weights_only};
}

/// Select the compute backend for this invocation. Unknown names throw
/// listing the registered backends — same strict style as --norm/--dataset.
void select_backend(const eval::Args& args) {
  if (const std::string name = args.get("backend", ""); !name.empty())
    backend::set_backend(name);
}

/// Output paths for the end-of-run observability flush (empty = no flush).
std::string g_trace_path;    // NOLINT
std::string g_metrics_path;  // NOLINT

/// Turn trace/metrics emission on for this invocation: `--trace [path]`
/// enables the span tracer and writes a Chrome-trace JSON (Perfetto /
/// chrome://tracing) on exit; `--metrics [path]` enables metric emission
/// and dumps a registry snapshot the same way. Both are exported into the
/// environment (FSA_TRACE / FSA_METRICS) so re-exec'd shard workers
/// inherit the choice — a worker with FSA_METRICS on writes a
/// `telemetry.json` sidecar next to its shard result, merged per job,
/// never into reduced.json. Env-only activation (no flag) enables
/// collection without an output file.
void select_observability(const eval::Args& args) {
  if (args.has_flag("trace") || !args.get("trace", "").empty()) {
    g_trace_path = args.get("trace", "trace.json");
    obs::set_trace_enabled(true);
    setenv("FSA_TRACE", "on", 1);
  }
  if (args.has_flag("metrics") || !args.get("metrics", "").empty()) {
    g_metrics_path = args.get("metrics", "metrics.json");
    obs::set_metrics_enabled(true);
    setenv("FSA_METRICS", "on", 1);
  }
}

/// Flush requested observability artifacts after the command ran.
void flush_observability() {
  if (!g_trace_path.empty()) {
    obs::write_chrome_trace(g_trace_path);
    std::printf("trace written to %s (%zu span(s); load in Perfetto or chrome://tracing)\n",
                g_trace_path.c_str(), obs::span_count());
  }
  if (!g_metrics_path.empty()) {
    dist::write_json_atomic(g_metrics_path, obs::Registry::global().to_json());
    std::printf("metrics written to %s\n", g_metrics_path.c_str());
  }
}

/// Map --norm (validated) and --method onto a registry key. --method wins;
/// --norm is the historical spelling for the fsa variants.
std::string method_name(const eval::Args& args) {
  const std::string norm = args.get("norm", "");
  if (!norm.empty() && norm != "l0" && norm != "l2" && norm != "l1")
    throw std::invalid_argument("unknown --norm \"" + norm + "\" (expected l0, l2 or l1)");
  return args.get("method", "fsa-" + (norm.empty() ? "l0" : norm));
}

struct Context {
  models::ModelZoo zoo;
  std::unique_ptr<eval::AttackBench> bench;
  models::ZooModel* model = nullptr;

  Context(const std::string& dataset, const std::string& layers_csv, bool weights, bool biases) {
    if (dataset != "digits" && dataset != "objects")
      throw std::invalid_argument("unknown --dataset \"" + dataset +
                                  "\" (expected digits or objects)");
    model = dataset == "objects" ? &zoo.objects() : &zoo.digits();
    bench = std::make_unique<eval::AttackBench>(*model, zoo.cache_dir(),
                                                eval::split_csv(layers_csv), weights, biases);
  }
};

int cmd_info() {
  models::ModelZoo zoo;
  eval::Table table("models");
  table.header({"model", "test accuracy", "params", "fc3 params"});
  for (auto* m : {&zoo.digits(), &zoo.objects()}) {
    const auto mask = core::ParamMask::make(m->net, {"fc3"});
    table.row({m->name, eval::pct(m->test_accuracy), std::to_string(m->net.param_count()),
               std::to_string(mask.size())});
  }
  table.print();
  return 0;
}

int cmd_methods() {
  std::printf("registered attack methods:\n");
  for (const auto& name : engine::attacker_names()) std::printf("  %s\n", name.c_str());
  return 0;
}

int cmd_backends() {
  // Resolve FSA_BACKEND defensively: this is the very command a user runs
  // to discover valid names, so a typo'd env var must not suppress the
  // listing — print the names, then report the bad selection.
  std::string current, bad_env;
  try {
    current = backend::active_name();
  } catch (const std::exception& e) {
    bad_env = e.what();
  }
  std::printf("registered compute backends (* = active):\n");
  for (const auto& name : backend::backend_names())
    std::printf("  %s%s\n", name.c_str(), name == current ? " *" : "");
  if (!bad_env.empty()) {
    std::fprintf(stderr, "fsa_cli: %s\n", bad_env.c_str());
    return 2;
  }
  return 0;
}

int cmd_injectors() {
  std::printf("registered fault injectors:\n");
  for (const auto& name : faultsim::injector_names()) std::printf("  %s\n", name.c_str());
  return 0;
}

int cmd_defenses() {
  std::printf("registered defenses (--defense name[/granularity[/slack]], + composes):\n");
  for (const auto& name : defense::defense_names()) std::printf("  %s\n", name.c_str());
  return 0;
}

/// The attacker for one CLI invocation: fsa variants honor --rho/--c/
/// --verbose solver overrides; everything else comes from the registry.
std::shared_ptr<const engine::Attacker> cli_attacker(const eval::Args& args,
                                                     const std::string& method) {
  if (method.rfind("fsa-", 0) == 0 && engine::has_attacker(method)) {
    core::FaultSneakingConfig cfg;
    cfg.admm.norm = method == "fsa-l2"   ? core::NormKind::kL2
                    : method == "fsa-l1" ? core::NormKind::kL1
                                         : core::NormKind::kL0;
    cfg.admm.rho = args.get_double("rho", cfg.admm.rho);
    cfg.admm.c = args.get_double("c", cfg.admm.c);
    cfg.verbose = cfg.admm.verbose = args.has_flag("verbose");
    return std::make_shared<engine::FsaAttacker>(cfg);
  }
  return engine::make_attacker(method);  // throws with the known-name list
}

int cmd_attack(const eval::Args& args) {
  args.expect_only({"dataset", "layers", "s", "r", "method", "norm", "backend", "seed", "rho",
                    "c", "weights-only", "biases-only", "save", "verbose", "trace", "metrics"});
  select_backend(args);
  select_observability(args);
  const auto [weights, biases] = surface_flags(args);
  const std::string method = method_name(args);
  const auto attacker = cli_attacker(args, method);

  Context ctx(args.get("dataset", "digits"), args.get("layers", "fc3"), weights, biases);
  const std::int64_t s = args.get_int("s", 1);
  const std::int64_t r = args.get_int("r", 100);
  const core::AttackSpec spec = ctx.bench->spec(s, r, args.get_int("seed", 1));

  backend::active().begin_attribution();
  engine::AttackReport rep = attacker->run(ctx.model->net, ctx.bench->attack().mask(), spec);
  rep.backend = backend::active().attribution();
  const double acc = ctx.bench->test_accuracy_with(rep.delta);

  eval::Table table("attack result (" + attacker->name() + ", " + rep.surface + ")");
  table.header({"metric", "value"})
      .row({"backend", rep.backend})
      .row({"faults injected", std::to_string(rep.targets_hit) + "/" + std::to_string(s)})
      .row({"anchors kept", std::to_string(rep.maintained) + "/" + std::to_string(r - s)})
      .row({"l0", std::to_string(rep.l0)})
      .row({"l2", eval::fmt(rep.l2)})
      .row({"test acc before", eval::pct(ctx.bench->clean_test_accuracy())})
      .row({"test acc after", eval::pct(acc)})
      .row({"wall time", eval::fmt(rep.seconds, 2) + " s"});
  table.print();

  if (const std::string path = args.get("save", ""); !path.empty()) {
    io::save_tensors(path, {rep.delta});
    std::printf("delta saved to %s (load with `fsa_cli campaign --delta %s ...`)\n",
                path.c_str(), path.c_str());
  }
  return rep.all_targets_hit ? 0 : 1;
}

/// Worker mode: solve one shard of a sweep manifest and emit the result.
/// Index and manifest validation happen before the model loads.
int cmd_sweep_run_shard(const eval::Args& args) {
  const eval::Json manifest = dist::read_json_file(args.get("run-shard", ""));
  const int shard = shard_index(args, manifest);
  if (const std::string be = manifest.get_string("backend", ""); !be.empty())
    backend::set_backend(be);  // the coordinator's backend, not this env's

  const std::string dataset = manifest.get_string("dataset", "digits");
  if (dataset != "digits" && dataset != "objects")
    throw std::invalid_argument("sweep manifest: unknown dataset \"" + dataset + "\"");
  models::ModelZoo zoo;
  models::ZooModel& model = dataset == "objects" ? zoo.objects() : zoo.digits();
  engine::SweepRunner runner(model, zoo.cache_dir(), /*verbose=*/true);  // → shard log
  return emit_shard_result(args, dist::run_sweep_shard(manifest, shard, runner));
}

/// Coordinator mode: lay the sweep out as a job directory, fan N copies of
/// this binary out over its shards, and reduce. The reduced JSON is
/// canonical — bitwise identical for any --workers.
int cmd_sweep_workers(const eval::Args& args, const engine::Sweep& sweep,
                      const std::string& dataset, const dist::RunJobOptions& opts) {
  const std::vector<engine::SweepSpec> specs = sweep.build();

  // Load the model and warm every surface's feature cache BEFORE spawning:
  // workers read the shared FSA_CACHE_DIR, and N processes racing to train
  // the same model (or write the same cache file) must never happen.
  models::ModelZoo zoo;
  models::ZooModel& model = dataset == "objects" ? zoo.objects() : zoo.digits();
  engine::SweepRunner warm(model, zoo.cache_dir(), /*verbose=*/false);
  for (const engine::SweepSpec& s : specs) (void)warm.bench(s.layers, s.weights, s.biases);

  bool temporary = false;
  const std::string dir = job_dir_root(args, "sweep", temporary);
  // Resume only a job whose manifest matches THIS request byte-for-byte;
  // a leftover directory for a different sweep errors instead of serving
  // stale rows.
  const dist::JobDir job = dist::open_or_create_job(
      dir, "sweep", dist::sweep_manifest(dataset, backend::active_name(), specs));
  // Temp-dir jobs go through run_temp_job: removed on success, retained
  // AND named in the error on permanent failure (the logs are the trail).
  const eval::Json reduced = temporary ? dist::run_temp_job(job, dist::self_exe(g_argv0), opts)
                                       : dist::run_job(job, dist::self_exe(g_argv0), opts);

  // Rebuild rows for the human-facing table; the canonical artifact is the
  // reduced JSON itself.
  engine::SweepResult result;
  result.model = model.name;
  result.backend = reduced.get_string("backend", backend::active_name());
  result.workers = opts.workers;
  for (const eval::Json& row : reduced.at("rows").items()) {
    engine::SweepRow r;
    r.report = engine::AttackReport::from_json(row);
    const auto idx = static_cast<std::size_t>(row.get_int("index", 0));
    if (idx < specs.size()) r.spec = specs[idx];
    result.rows.push_back(std::move(r));
  }
  result.table("sweep (" + dataset + ", " + std::to_string(opts.workers) + " worker process(es))")
      .print();
  if (const std::string path = args.get("json", ""); !path.empty()) {
    dist::write_json_atomic(path, reduced);
    std::printf("reduced json written to %s\n", path.c_str());
  }
  if (const std::string path = args.get("csv", ""); !path.empty())
    result.table("sweep").write_csv(path);
  if (!temporary) std::printf("job directory: %s\n", job.path().c_str());

  for (const auto& row : result.rows)
    if (!row.report.all_targets_hit) return 1;
  return 0;
}

int cmd_sweep(const eval::Args& args) {
  args.expect_only({"dataset", "layers", "method", "norm", "backend", "s-list", "r-list",
                    "seeds", "weights-only", "biases-only", "json", "csv", "no-acc", "quiet",
                    "with-campaign", "injector", "shards", "injector-profile", "with-defense",
                    "defense", "workers", "job", "run-shard", "shard", "out", "trace",
                    "metrics"});
  apply_injector_profile(args);
  select_observability(args);
  if (!args.get("run-shard", "").empty()) {
    if (!args.get("workers", "").empty())
      throw std::invalid_argument("--run-shard (worker mode) conflicts with --workers");
    return cmd_sweep_run_shard(args);
  }
  select_backend(args);
  const auto [weights, biases] = surface_flags(args);

  // Flag validation (campaign config and worker counts included) runs
  // BEFORE the model zoo loads: a typo must fail in milliseconds, not
  // after a model train.
  const bool dist_mode = !args.get("workers", "").empty() || args.has_flag("workers");
  const dist::RunJobOptions opts = worker_options(args, /*verbose=*/!args.has_flag("quiet"));
  engine::Sweep sweep;
  sweep.methods(args.get_list("method", method_name(args)))
      .layers(args.get_list("layers", "fc3"))
      .s_values(args.get_int_list("s-list", "1"))
      .r_values(args.get_int_list("r-list", "100"))
      .seeds(args.get_u64_list("seeds", "1"))
      .measure_accuracy(!args.has_flag("no-acc"));
  if (!weights) sweep.biases_only();
  if (!biases) sweep.weights_only();
  if (args.has_flag("with-campaign")) {
    engine::CampaignConfig cfg;
    cfg.injectors = injector_list(args, "rowhammer");
    cfg.shards = positive_int(args, "shards", 1);
    sweep.with_campaign(cfg);
  } else if (!args.get("injector", "").empty() || !args.get("shards", "").empty()) {
    throw std::invalid_argument("--injector/--shards require --with-campaign (sweep)");
  }
  // Deploy one guard against every row's δ. parse_defense is strict (it
  // builds the guard through the registry), so a typo'd name or malformed
  // granularity fails here — before any model loads.
  if (args.has_flag("with-defense") || !args.get("defense", "").empty()) {
    sweep.with_defense(defense::parse_defense(args.get("defense", "range")));
  }

  const std::string dataset = args.get("dataset", "digits");
  if (dataset != "digits" && dataset != "objects")
    throw std::invalid_argument("unknown --dataset \"" + dataset +
                                "\" (expected digits or objects)");
  if (dist_mode) return cmd_sweep_workers(args, sweep, dataset, opts);

  models::ModelZoo zoo;
  models::ZooModel& model = dataset == "objects" ? zoo.objects() : zoo.digits();

  engine::SweepRunner runner(model, zoo.cache_dir(), /*verbose=*/!args.has_flag("quiet"));
  const engine::SweepResult result = runner.run(sweep);

  result.table("sweep (" + dataset + ", " + std::to_string(result.workers) + " workers)").print();
  if (const std::string path = args.get("json", ""); !path.empty()) {
    result.write_json(path);
    std::printf("json report written to %s\n", path.c_str());
  }
  if (const std::string path = args.get("csv", ""); !path.empty())
    result.table("sweep").write_csv(path);

  for (const auto& row : result.rows)
    if (!row.report.all_targets_hit) return 1;
  return 0;
}

/// Render the reduced arena document's evasion frontier (one line per
/// method × defense pairing).
void print_arena_frontier(const eval::Json& reduced) {
  eval::Table table("evasion frontier (method × defense)");
  table.header({"method", "defense", "rows", "detect", "evade", "mean l0", "mean l2",
                "overhead B", "verify cost"});
  for (const eval::Json& e : reduced.at("frontier").items())
    table.row({e.get_string("method", ""), e.get_string("defense", ""),
               std::to_string(e.get_int("rows", 0)), eval::pct(e.get_number("detect_rate", 0.0)),
               eval::pct(e.get_number("evasion_rate", 0.0)),
               eval::fmt(e.get_number("mean_l0", 0.0), 1), eval::fmt(e.get_number("mean_l2", 0.0)),
               std::to_string(e.get_int("overhead_bytes", 0)),
               std::to_string(e.get_int("verify_cost", 0))});
  table.print();
}

/// `arena`: cross attack methods against deployed defenses and reduce the
/// rows into the evasion frontier. All three modes — in-process,
/// `--workers` coordinator, `--run-shard` worker — funnel through the
/// arena reducer, so the reduced JSON (rows AND frontier) is
/// byte-identical for any worker or thread count. Exit code is 0 when the
/// grid ran: a detected or incomplete attack is a data point on the
/// frontier, not a CLI failure.
int cmd_arena(const eval::Args& args) {
  args.expect_only({"dataset", "layers", "method", "defense", "backend", "s-list", "r-list",
                    "seeds", "weights-only", "biases-only", "acc", "json", "csv", "quiet",
                    "with-campaign", "injector", "shards", "format", "injector-profile",
                    "workers", "job", "run-shard", "shard", "out", "trace", "metrics"});
  apply_injector_profile(args);
  select_observability(args);
  if (!args.get("run-shard", "").empty()) {
    if (!args.get("workers", "").empty())
      throw std::invalid_argument("--run-shard (worker mode) conflicts with --workers");
    return cmd_sweep_run_shard(args);  // kind-agnostic: the manifest says "arena"
  }
  select_backend(args);
  const auto [weights, biases] = surface_flags(args);

  // The whole grid — methods, defenses, campaign config, worker counts —
  // validates BEFORE the model zoo loads: a typo'd defense spelling must
  // fail in milliseconds, not after a model train.
  engine::ArenaConfig cfg;
  cfg.methods = args.get_list("method", "fsa-l0,fsa-l2");
  for (const std::string& d : args.get_list("defense", "checksum,range"))
    cfg.defenses.push_back(defense::parse_defense(d));
  cfg.layer_sets = {eval::split_csv(args.get("layers", "fc3"))};
  cfg.weights = weights;
  cfg.biases = biases;
  cfg.sr_pairs.clear();
  for (const std::int64_t s : args.get_int_list("s-list", "2"))
    for (const std::int64_t r : args.get_int_list("r-list", "100")) cfg.sr_pairs.emplace_back(s, r);
  cfg.seeds = args.get_u64_list("seeds", "1");
  cfg.measure_accuracy = args.has_flag("acc");
  if (args.has_flag("with-campaign")) {
    engine::CampaignConfig camp;
    camp.injectors = injector_list(args, "rowhammer");
    camp.shards = positive_int(args, "shards", 1);
    if (const std::string f = args.get("format", ""); !f.empty())
      camp.format = faultsim::format_from_name(f);
    cfg.campaign = camp;
  } else if (!args.get("injector", "").empty() || !args.get("shards", "").empty() ||
             !args.get("format", "").empty()) {
    throw std::invalid_argument("--injector/--shards/--format require --with-campaign (arena)");
  }
  const std::vector<engine::SweepSpec> specs = engine::arena_specs(cfg);

  const bool dist_mode = !args.get("workers", "").empty() || args.has_flag("workers");
  const dist::RunJobOptions opts = worker_options(args, /*verbose=*/!args.has_flag("quiet"));
  const std::string dataset = args.get("dataset", "digits");
  if (dataset != "digits" && dataset != "objects")
    throw std::invalid_argument("unknown --dataset \"" + dataset +
                                "\" (expected digits or objects)");

  models::ModelZoo zoo;
  models::ZooModel& model = dataset == "objects" ? zoo.objects() : zoo.digits();
  const eval::Json manifest = dist::arena_manifest(dataset, backend::active_name(), specs);

  eval::Json reduced;
  std::string job_path;
  if (dist_mode) {
    // Warm every surface's feature cache BEFORE spawning: workers share
    // FSA_CACHE_DIR, and N processes must never race to train one model.
    engine::SweepRunner warm(model, zoo.cache_dir(), /*verbose=*/false);
    for (const engine::SweepSpec& s : specs) (void)warm.bench(s.layers, s.weights, s.biases);
    bool temporary = false;
    const std::string dir = job_dir_root(args, "arena", temporary);
    const dist::JobDir job = dist::open_or_create_job(dir, "arena", manifest);
    reduced = temporary ? dist::run_temp_job(job, dist::self_exe(g_argv0), opts)
                        : dist::run_job(job, dist::self_exe(g_argv0), opts);
    if (!temporary) job_path = job.path();
  } else {
    // In-process: solve the whole grid on the thread pool, then push the
    // rows through the SAME arena reducer a job directory uses — the
    // reduced JSON matches any --workers run byte for byte.
    engine::SweepRunner runner(model, zoo.cache_dir(), /*verbose=*/!args.has_flag("quiet"));
    const engine::SweepResult result = runner.run(specs);
    std::vector<std::size_t> indices(specs.size());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    eval::Json shard = eval::Json::object();
    shard.set("kind", eval::Json::string("arena"));
    shard.set("shard", eval::Json::number(static_cast<std::int64_t>(0)));
    shard.set("rows", dist::sweep_rows_json(result, indices));
    reduced = dist::make_reducer("arena")->reduce(manifest, {shard});
  }

  // Rebuild the row table for the human; the canonical artifact is the
  // reduced JSON itself.
  engine::SweepResult view;
  view.model = model.name;
  view.backend = reduced.get_string("backend", backend::active_name());
  view.workers = dist_mode ? opts.workers : 1;
  for (const eval::Json& row : reduced.at("rows").items()) {
    engine::SweepRow r;
    r.report = engine::AttackReport::from_json(row);
    const auto idx = static_cast<std::size_t>(row.get_int("index", 0));
    if (idx < specs.size()) r.spec = specs[idx];
    view.rows.push_back(std::move(r));
  }
  view.table("arena (" + dataset + ", " + std::to_string(specs.size()) + " cell(s))").print();
  print_arena_frontier(reduced);

  if (const std::string path = args.get("json", ""); !path.empty()) {
    dist::write_json_atomic(path, reduced);
    std::printf("reduced json written to %s\n", path.c_str());
  }
  if (const std::string path = args.get("csv", ""); !path.empty())
    view.table("arena").write_csv(path);
  if (!job_path.empty()) std::printf("job directory: %s\n", job_path.c_str());
  return 0;
}

Tensor load_delta(const eval::Args& args, const Context& ctx) {
  const std::string path = args.get("delta", "");
  if (path.empty()) throw std::invalid_argument("--delta is required");
  auto tensors = io::load_tensors(path);
  if (tensors.size() != 1 || tensors[0].numel() != ctx.bench->attack().mask().size())
    throw std::runtime_error("delta file does not match the selected attack surface");
  return tensors[0];
}

void print_campaign_line(const std::string& name, const faultsim::CampaignReport& rep,
                         double estimate) {
  std::printf("%s: %lld/%lld bits, %lld attempts, %lld massages, %.2f h (est %.2f h), %s\n",
              name.c_str(), static_cast<long long>(rep.bits_flipped),
              static_cast<long long>(rep.bits_requested),
              static_cast<long long>(rep.attempts), static_cast<long long>(rep.massages),
              rep.seconds / 3600.0, estimate / 3600.0,
              rep.success ? "complete" : "INCOMPLETE");
}

/// Worker mode: simulate one shard of a campaign manifest. Needs no model,
/// no δ, no dataset — the manifest is self-contained.
int cmd_campaign_run_shard(const eval::Args& args) {
  const eval::Json manifest = dist::read_json_file(args.get("run-shard", ""));
  const int shard = shard_index(args, manifest);
  return emit_shard_result(args, dist::run_campaign_shard(manifest, shard));
}

int cmd_campaign(const eval::Args& args) {
  args.expect_only({"dataset", "layers", "delta", "injector", "shards", "seed", "manifest",
                    "injector-profile", "workers", "job", "run-shard", "shard", "out", "trace",
                    "metrics"});
  apply_injector_profile(args);
  select_observability(args);
  if (!args.get("run-shard", "").empty()) {
    if (!args.get("workers", "").empty())
      throw std::invalid_argument("--run-shard (worker mode) conflicts with --workers");
    return cmd_campaign_run_shard(args);
  }
  // Validate the injector selection and all counts BEFORE touching the
  // model zoo: a typo must fail in milliseconds, not after a model train.
  const std::vector<std::string> injectors = injector_list(args, "laser");
  const bool dist_mode = !args.get("workers", "").empty() || args.has_flag("workers");
  const dist::RunJobOptions opts = worker_options(args, /*verbose=*/true);
  // In dist mode an unspecified --shards defaults to the worker count so
  // every process has work; totals are shard-count invariant either way.
  const int shards = positive_int(args, "shards", dist_mode ? opts.workers : 1);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const faultsim::CampaignRunner runner(shards, seed);

  Context ctx(args.get("dataset", "digits"), args.get("layers", "fc3"), true, true);
  const Tensor delta = load_delta(args, ctx);

  const faultsim::MemoryLayout layout;
  const auto plan = faultsim::plan_bit_flips(ctx.bench->attack().theta0(), delta, layout);
  std::printf("plan: %lld params, %lld bit flips, %lld rows (%d shard(s), seed %llu)\n",
              static_cast<long long>(plan.params_modified),
              static_cast<long long>(plan.total_bit_flips),
              static_cast<long long>(plan.rows_touched), shards,
              static_cast<unsigned long long>(seed));

  if (const std::string path = args.get("manifest", ""); !path.empty()) {
    // Shard manifest for out-of-process execution (first selected injector).
    const faultsim::CampaignPlanner planner(injectors.front(), shards, seed);
    dist::write_json_atomic(path, planner.manifest(plan, layout));
    std::printf("shard manifest written to %s\n", path.c_str());
  }

  bool all_complete = true;
  if (dist_mode) {
    // One job directory per injector; shards run in child processes. The
    // reduced totals are bitwise identical to the in-process path.
    bool temporary = false;
    const std::string root = job_dir_root(args, "campaign", temporary);
    for (const std::string& name : injectors) {
      const std::string dir =
          injectors.size() == 1 ? root : (std::filesystem::path(root) / name).string();
      const faultsim::CampaignPlanner planner(name, shards, seed);
      const dist::JobDir job =
          dist::open_or_create_job(dir, "campaign", planner.manifest(plan, layout));
      // Temp-dir jobs: removed on success, retained and named in the
      // error on permanent failure (per-injector sub-jobs individually).
      const eval::Json reduced = temporary ? dist::run_temp_job(job, dist::self_exe(g_argv0), opts)
                                           : dist::run_job(job, dist::self_exe(g_argv0), opts);
      const faultsim::CampaignReport rep =
          faultsim::CampaignReport::from_json(reduced.at("report"));
      print_campaign_line(name, rep, faultsim::make_injector(name)->plan_cost(plan, layout));
      all_complete = all_complete && rep.success;
    }
    // A worker failure throws out of run_temp_job naming the retained
    // directory; reaching here means every shard ran and the per-injector
    // temp sub-jobs are already gone — sweep the (now empty) root too.
    if (temporary)
      std::filesystem::remove_all(root);
    else
      std::printf("job directory: %s\n", root.c_str());
    return all_complete ? 0 : 1;
  }

  for (const std::string& name : injectors) {
    const faultsim::InjectorPtr injector = faultsim::make_injector(name);
    const double estimate = injector->plan_cost(plan, layout);
    const faultsim::CampaignReport rep = runner.run(*injector, plan, layout);
    print_campaign_line(name, rep, estimate);
    all_complete = all_complete && rep.success;
  }
  return all_complete ? 0 : 1;
}

/// `dist run|serve|reduce|status --job dir`: operate on an existing job
/// directory — the whole coordination protocol lives in its files.
int cmd_dist(const eval::Args& args) {
  const std::string mode = args.command();
  if (mode != "run" && mode != "serve" && mode != "reduce" && mode != "status") return usage();

  if (mode == "serve") {
    // serve opens its job dirs itself (they may not even exist yet — a
    // daemon polls until another process lays them out).
    args.expect_only({"job", "poll-ms", "lease-expiry-ms", "heartbeat-ms", "once", "max-shards",
                      "quiet", "trace", "metrics"});
    select_observability(args);
    dist::ServeOptions opts;
    opts.jobs = args.get_list("job", "");
    if (opts.jobs.empty())
      throw std::invalid_argument("dist serve: --job <dir1[,dir2...]> is required");
    opts.poll_ms = positive_int(args, "poll-ms", opts.poll_ms);
    opts.lease_expiry_ms = positive_int(args, "lease-expiry-ms", opts.lease_expiry_ms);
    opts.heartbeat_ms = positive_int(args, "heartbeat-ms", 0);
    opts.once = args.has_flag("once");
    opts.max_shards = positive_int(args, "max-shards", 0);
    opts.verbose = !args.has_flag("quiet");
    const dist::ServeReport rep = dist::serve(opts, dist::self_exe(g_argv0));
    std::printf("serve: %d shard(s) run, %d failed, %d lease(s) reclaimed, %d job(s) reduced%s\n",
                rep.shards_run, rep.shards_failed, rep.shards_reclaimed, rep.jobs_reduced,
                rep.drained ? " (drained on signal)" : "");
    return rep.shards_failed == 0 ? 0 : 1;
  }

  args.expect_only({"job", "workers", "json", "trace", "metrics"});
  select_observability(args);
  const std::string dir = args.get("job", "");
  if (dir.empty()) throw std::invalid_argument("dist " + mode + ": --job <dir> is required");
  const dist::JobDir job = dist::JobDir::open(dir);

  if (mode == "status") {
    const dist::JobStatus st = job.status();
    if (args.has_flag("json")) {
      // Structured status for scripts/dashboards: everything the human
      // rendering shows, plus lease owners with heartbeat ages.
      eval::Json doc = eval::Json::object();
      doc.set("job", eval::Json::string(job.path()));
      doc.set("kind", eval::Json::string(job.kind()));
      doc.set("shards", eval::Json::number(static_cast<std::int64_t>(st.shards)));
      eval::Json done = eval::Json::array();
      for (const int s : st.done) done.push_back(eval::Json::number(static_cast<std::int64_t>(s)));
      doc.set("done", std::move(done));
      eval::Json missing = eval::Json::array();
      for (const int s : st.missing)
        missing.push_back(eval::Json::number(static_cast<std::int64_t>(s)));
      doc.set("missing", std::move(missing));
      doc.set("reduced", eval::Json::boolean(st.reduced));
      std::error_code ec;
      doc.set("telemetry",
              eval::Json::boolean(std::filesystem::is_regular_file(job.telemetry_path(), ec)));
      const std::int64_t now = dist::lease_now_ms();
      eval::Json leases = eval::Json::array();
      for (const auto& [shard, lease] : dist::list_leases(job)) {
        eval::Json l = eval::Json::object();
        l.set("shard", eval::Json::number(static_cast<std::int64_t>(shard)));
        l.set("owner", eval::Json::string(lease.owner));
        l.set("host", eval::Json::string(lease.host));
        l.set("pid", eval::Json::number(static_cast<std::int64_t>(lease.pid)));
        l.set("heartbeat_age_ms",
              eval::Json::number(std::max<std::int64_t>(0, now - lease.heartbeat_ms)));
        leases.push_back(std::move(l));
      }
      doc.set("leases", std::move(leases));
      std::printf("%s\n", doc.dump(2).c_str());
      return st.missing.empty() ? 0 : 1;
    }
    std::printf("job %s: kind %s, %d shard(s), %zu done, %zu missing, %s\n", job.path().c_str(),
                job.kind().c_str(), st.shards, st.done.size(), st.missing.size(),
                st.reduced ? "reduced" : "not reduced");
    if (!st.missing.empty()) {
      std::string missing;
      for (int s : st.missing) missing += (missing.empty() ? "" : ",") + std::to_string(s);
      std::printf("missing shards: %s\n", missing.c_str());
    }
    const std::int64_t now = dist::lease_now_ms();
    for (const auto& [shard, lease] : dist::list_leases(job))
      std::printf("lease: shard %d held by %s (heartbeat %lld ms ago)\n", shard,
                  lease.owner.empty() ? "(corrupt lease)" : lease.owner.c_str(),
                  static_cast<long long>(std::max<std::int64_t>(0, now - lease.heartbeat_ms)));
    return st.missing.empty() ? 0 : 1;
  }

  if (mode == "reduce") {
    const eval::Json reduced = dist::reduce_job(job);  // throws listing missing shards
    job.write_reduced(reduced);
    std::printf("%s\n", reduced.dump(2).c_str());
    std::printf("reduced json written to %s\n", job.reduced_path().c_str());
    return 0;
  }

  const eval::Json reduced = dist::run_job(job, dist::self_exe(g_argv0),
                                           worker_options(args, /*verbose=*/true));
  std::printf("%s\n", reduced.dump(2).c_str());
  std::printf("reduced json written to %s\n", job.reduced_path().c_str());
  return 0;
}

/// `eval`: emit the deterministic surface-evaluation document — the SAME
/// bytes POST /v1/eval returns for the same surface (shared
/// serve::eval_document), so CI byte-diffs daemon against CLI.
int cmd_eval(const eval::Args& args) {
  args.expect_only(
      {"dataset", "layers", "weights-only", "biases-only", "backend", "json", "trace", "metrics"});
  select_backend(args);
  select_observability(args);
  const auto [weights, biases] = surface_flags(args);
  const std::string dataset = args.get("dataset", "digits");
  if (dataset != "digits" && dataset != "objects")
    throw std::invalid_argument("unknown --dataset \"" + dataset +
                                "\" (expected digits or objects)");
  models::ModelZoo zoo;
  models::ZooModel& model = dataset == "objects" ? zoo.objects() : zoo.digits();
  engine::SweepRunner runner(model, zoo.cache_dir(), /*verbose=*/false);
  const eval::Json doc =
      serve::eval_document(runner, dataset, backend::active_name(),
                           eval::split_csv(args.get("layers", "fc3")), weights, biases);
  if (const std::string path = args.get("json", ""); !path.empty()) {
    dist::write_json_atomic(path, doc);
    std::printf("eval json written to %s\n", path.c_str());
  } else {
    std::printf("%s\n", doc.dump(2).c_str());
  }
  return 0;
}

/// `serve`: the long-lived attack-service daemon. Loads every configured
/// model up front, then serves HTTP until SIGTERM/SIGINT (drain: finish
/// in-flight and queued requests, then exit 0) or, with --once, until the
/// first work request completes.
int cmd_serve(const eval::Args& args) {
  args.expect_only({"port", "threads", "max-batch", "max-delay-ms", "max-queue", "executors",
                    "datasets", "warm-layers", "backend", "once", "quiet", "trace", "metrics"});
  select_backend(args);
  select_observability(args);
  const bool quiet = args.has_flag("quiet");

  serve::ServiceOptions service_options;
  service_options.batcher.max_batch = positive_int(args, "max-batch", 8);
  service_options.batcher.max_queue = positive_int(args, "max-queue", 64);
  service_options.batcher.executors = positive_int(args, "executors", 2);
  const auto delay = args.get_int("max-delay-ms", service_options.batcher.max_delay_ms);
  if (delay < 0) throw std::invalid_argument("--max-delay-ms must be >= 0");
  service_options.batcher.max_delay_ms = static_cast<int>(delay);

  serve::HttpServerOptions server_options;
  const auto port = args.get_int("port", 0);
  if (port < 0 || port > 65535)
    throw std::invalid_argument("--port must be in [0, 65535] (0 = ephemeral)");
  server_options.port = static_cast<int>(port);
  server_options.threads = positive_int(args, "threads", 4);
  server_options.verbose = !quiet;

  // Models load and feature caches warm BEFORE the socket opens: the
  // first request is as fast as the thousandth.
  serve::ServeZooOptions zoo_options;
  zoo_options.datasets = args.get_list("datasets", "digits");
  zoo_options.warm_layers = args.get_list("warm-layers", "fc3");
  zoo_options.verbose = !quiet;
  serve::ServeZoo zoo(zoo_options);
  serve::AttackService service(zoo, service_options);

  serve::HttpServer server(server_options,
                           [&service](const serve::HttpRequest& r) { return service.handle(r); });
  const serve::DrainSignalGuard guard;
  server.start();
  // Scripts (loadgen, CI) parse this line for the ephemeral port.
  std::printf("fsa_serve listening on 127.0.0.1:%d (backend %s)\n", server.port(),
              service.backend().c_str());
  std::fflush(stdout);

  const bool once = args.has_flag("once");
  while (!serve::DrainSignalGuard::stop_requested()) {
    if (once && service.requests_handled() >= 1) break;
    usleep(50 * 1000);
  }
  // Graceful drain, mirroring `dist serve`: stop accepting, complete
  // every accepted and queued request, then report.
  server.stop();
  service.drain();
  const eval::Json stats = service.stats_json();
  if (!quiet)
    std::printf("serve: %lld request(s) handled, %lld batch(es), %lld shed%s\n",
                static_cast<long long>(service.requests_handled()),
                static_cast<long long>(stats.at("batches").get_int("count", 0)),
                static_cast<long long>(stats.at("requests").get_int("shed", 0)),
                serve::DrainSignalGuard::stop_requested() ? " (drained on signal)" : "");
  return 0;
}

int cmd_audit(const eval::Args& args) {
  args.expect_only({"dataset", "layers", "delta"});
  Context ctx(args.get("dataset", "digits"), args.get("layers", "fc3"), true, true);
  const Tensor delta = load_delta(args, ctx);
  Tensor after = ctx.bench->attack().theta0();
  after += delta;
  const eval::AuditReport rep = eval::audit_weights(ctx.bench->attack().theta0(), after);
  std::printf("audit: changed %s, max|dw| %.4f, mean shift %.5f, std ratio %.4f, KS %.4f\n",
              eval::pct(rep.changed_fraction).c_str(), rep.max_abs_change, rep.mean_shift,
              rep.std_ratio, rep.ks_statistic);
  std::printf("anomaly score: %.2f\n", eval::anomaly_score(rep));
  return 0;
}

int dispatch(int argc, char** argv) {
  // `dist` carries a sub-subcommand (run|reduce|status): shift it into
  // the parser's subcommand slot.
  if (argc > 1 && std::string(argv[1]) == "dist")
    return cmd_dist(eval::Args::parse(argc - 1, argv + 1));
  const eval::Args args = eval::Args::parse(argc, argv);
  if (args.command() == "info") return cmd_info();
  if (args.command() == "methods") return cmd_methods();
  if (args.command() == "backends") return cmd_backends();
  if (args.command() == "injectors") return cmd_injectors();
  if (args.command() == "defenses") return cmd_defenses();
  if (args.command() == "attack") return cmd_attack(args);
  if (args.command() == "sweep") return cmd_sweep(args);
  if (args.command() == "arena") return cmd_arena(args);
  if (args.command() == "campaign") return cmd_campaign(args);
  if (args.command() == "serve") return cmd_serve(args);
  if (args.command() == "eval") return cmd_eval(args);
  if (args.command() == "audit") return cmd_audit(args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 0 && argv[0] && argv[0][0] != '\0') g_argv0 = argv[0];
  try {
    const int rc = dispatch(argc, argv);
    // Trace/metrics artifacts flush on success AND on a nonzero exit
    // (a failed attack's trace is exactly the one worth looking at).
    flush_observability();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsa_cli: %s\n", e.what());
    return 2;
  }
}
