#!/usr/bin/env sh
# run_benches.sh — build Release, run the micro-op benchmarks, and APPEND a
# per-run entry (git sha, date, backend, full google-benchmark output) to
# the BENCH_micro_ops.json trajectory at the repo root, so successive PRs
# accumulate a comparable perf history instead of overwriting it.
#
#   tools/run_benches.sh [extra benchmark args...]
#
# Extra args are forwarded to bench_micro_ops (e.g. --benchmark_filter=Gemm
# or --benchmark_min_time=2). After the run, the delta of every benchmark
# against the PREVIOUS trajectory entry is printed (so perf regressions
# surface in review), followed by the GEMM speedup and per-backend
# comparison summaries. Appending and deltas need python3; without it the
# script falls back to the legacy overwrite-in-place behaviour.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build"
out_json="$repo_root/BENCH_micro_ops.json"
run_json="$build_dir/bench_micro_ops_run.json"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release

# Fail LOUDLY when the bench target is unavailable (google-benchmark not
# found at configure time, or the build broke): a silent no-op here leaves
# the BENCH_micro_ops.json trajectory without an entry for this sha, which
# reads as "no perf change" in review when it actually means "never ran".
if ! cmake --build "$build_dir" -j --target bench_micro_ops; then
  echo "run_benches.sh: ERROR: bench_micro_ops failed to build." >&2
  echo "  If CMake said 'google-benchmark not found; skipping bench_micro_ops'," >&2
  echo "  install google-benchmark and re-run; no trajectory entry was appended." >&2
  exit 1
fi
if [ ! -x "$build_dir/bench_micro_ops" ]; then
  echo "run_benches.sh: ERROR: $build_dir/bench_micro_ops is missing." >&2
  echo "  google-benchmark was not found at configure time, so the bench was" >&2
  echo "  skipped; install it and re-run. No trajectory entry was appended." >&2
  exit 1
fi

"$build_dir/bench_micro_ops" \
  --benchmark_out="$run_json" \
  --benchmark_out_format=json \
  "$@"

if [ ! -s "$run_json" ]; then
  echo "run_benches.sh: ERROR: bench run produced no JSON at $run_json;" >&2
  echo "  refusing to append an empty entry to the trajectory." >&2
  exit 1
fi

git_sha=$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)
run_date=$(date -u +%Y-%m-%dT%H:%M:%SZ)
backend=${FSA_BACKEND:-blocked}

if ! command -v python3 >/dev/null 2>&1; then
  # No python3, no appending — but NEVER clobber an accumulated trajectory
  # with a single raw run.
  if [ -f "$out_json" ] && grep -q '"runs"' "$out_json"; then
    echo "python3 not found; $out_json holds a trajectory, leaving it untouched" >&2
    echo "raw run output kept at $run_json" >&2
  else
    cp "$run_json" "$out_json"
    echo "python3 not found: wrote raw (non-appending) $out_json"
  fi
  exit 0
fi

python3 - "$run_json" "$out_json" "$git_sha" "$run_date" "$backend" <<'EOF'
import json, sys

run_path, out_path, sha, date, backend = sys.argv[1:6]

with open(run_path) as f:
    run = json.load(f)

# The trajectory file holds {"runs": [entry, ...]}, oldest first. A legacy
# raw google-benchmark file (pre-trajectory) is absorbed as its first entry.
try:
    with open(out_path) as f:
        trajectory = json.load(f)
    if "runs" not in trajectory:
        trajectory = {"runs": [{"sha": "legacy", "date": "", "backend": "blocked",
                                "benchmarks": trajectory.get("benchmarks", [])}]}
except (FileNotFoundError, json.JSONDecodeError):
    trajectory = {"runs": []}

entry = {
    "sha": sha,
    "date": date,
    "backend": backend,
    "context": run.get("context", {}),
    "benchmarks": run.get("benchmarks", []),
}
# Delta against the most recent entry with the SAME backend: comparing a
# reference run to a blocked run would flag spurious "regressions".
previous = next((r for r in reversed(trajectory["runs"])
                 if r.get("backend", "blocked") == backend), None)
trajectory["runs"].append(entry)

with open(out_path, "w") as f:
    json.dump(trajectory, f, indent=1)
    f.write("\n")
print(f"appended run {sha} ({backend}) to {out_path} "
      f"({len(trajectory['runs'])} run(s) in trajectory)")

# UseRealTime() rows carry a "/real_time" name suffix; key by the bare
# name so entries recorded before and after it stay comparable.
def bare(name):
    return name.removesuffix("/real_time")


times = {bare(b["name"]): b["real_time"] for b in entry["benchmarks"]}

# ---- delta vs the previous trajectory entry (perf-regression review aid) ----
if previous is not None:
    prev_times = {bare(b["name"]): b["real_time"] for b in previous.get("benchmarks", [])}
    common = [n for n in times if n in prev_times and prev_times[n] > 0]
    if common:
        print(f"\ndelta vs previous run {previous.get('sha', '?')} "
              f"({previous.get('backend', '?')}), real time "
              f"(negative = faster now):")
        for name in common:
            change = (times[name] - prev_times[name]) / prev_times[name] * 100.0
            flag = "  <-- regression?" if change > 10.0 else ""
            print(f"  {name}: {prev_times[name]:.3g} -> {times[name]:.3g} "
                  f"({change:+.1f}%){flag}")
    else:
        print("\n(no benchmarks in common with the previous entry; no delta)")
else:
    print(f"\n(no previous '{backend}' entry in the trajectory; no delta)")

# ---- GEMM speedup vs the frozen seed kernel --------------------------------
print("\nGEMM speedup vs seed serial kernel (real time):")
for size in (256, 512):
    seed = times.get(f"BM_GemmSeedSerial/{size}")
    if seed is None:
        continue
    for threads in (1, 2, 4):
        t = times.get(f"BM_Gemm/{size}/{threads}")
        if t:
            print(f"  {size}x{size}x{size} @ {threads} thread(s): {seed / t:.2f}x")

# ---- per-backend comparison (the packing win, L2-resident vs spilling) -----
rows = sorted((n, t) for n, t in times.items() if n.startswith("BM_GemmBackend/"))
if rows:
    print("\ncompute-backend GEMM comparison (real time):")
    for name, t in rows:
        print(f"  {name}: {t:.3g} ms")
    blocked = times.get("BM_GemmBackend/blocked/2048")
    packed = times.get("BM_GemmBackend/packed/2048")
    if blocked and packed:
        print(f"  packed speedup over blocked at the L2-spilling 2048^3: "
              f"{blocked / packed:.2f}x")
EOF

# ---- serve soak: fold daemon throughput/latency into the same entry ---------
# Start the HTTP daemon (fsa_serve), drive it with tools/loadgen (16
# concurrent clients of mixed sweep/eval traffic, byte-identity enforced
# by loadgen's exit code), and append {"serve": {throughput_rps, p50_ms,
# p99_ms}} to the trajectory entry written above — so the serving path
# accumulates a perf history alongside the GEMM numbers. Fails loudly:
# a missing serve datapoint must not read as "no change".
echo ""
echo "serve soak (fsa_serve + loadgen)..."
if ! cmake --build "$build_dir" -j --target fsa_cli loadgen; then
  echo "run_benches.sh: ERROR: fsa_cli/loadgen failed to build; no serve entry." >&2
  exit 1
fi

serve_log="$build_dir/serve_bench.log"
loadgen_json="$build_dir/loadgen_run.json"
printf '%s\n' '{"dataset": "digits", "specs": [{"method": "gda", "layers": ["fc3"], "S": 1, "R": 4, "seed": "3"}]}' > "$build_dir/serve_sweep_req.json"
printf '%s\n' '{"dataset": "digits", "layers": ["fc3"]}' > "$build_dir/serve_eval_req.json"

# Run from the repo root so the daemon shares .fsa_cache/ (a cold cache
# trains the digits model once, ~2 min; later runs boot in seconds). All
# later paths are absolute, so changing the script's cwd here is safe —
# and $! must be the daemon itself for the SIGTERM below to reach it.
cd "$repo_root"
"$build_dir/fsa_cli" serve --port 0 --max-batch 8 \
    --max-delay-ms 5 --datasets digits --warm-layers fc3 > "$serve_log" 2>&1 &
serve_pid=$!
port=""
i=0
while [ "$i" -lt 240 ]; do
  port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$serve_log" 2>/dev/null || true)
  [ -n "$port" ] && break
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    echo "run_benches.sh: ERROR: fsa_serve exited before listening:" >&2
    cat "$serve_log" >&2
    exit 1
  fi
  sleep 1
  i=$((i + 1))
done
if [ -z "$port" ]; then
  echo "run_benches.sh: ERROR: fsa_serve never printed its port; log:" >&2
  cat "$serve_log" >&2
  kill -TERM "$serve_pid" 2>/dev/null || true
  exit 1
fi

soak_rc=0
"$build_dir/loadgen" --port "$port" --clients 16 --iterations 4 \
    --get /healthz \
    --post "/v1/sweep=$build_dir/serve_sweep_req.json,/v1/eval=$build_dir/serve_eval_req.json" \
    --json > "$loadgen_json" || soak_rc=$?
kill -TERM "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
if [ "$soak_rc" -ne 0 ] || [ ! -s "$loadgen_json" ]; then
  echo "run_benches.sh: ERROR: loadgen soak failed (rc=$soak_rc); serve log:" >&2
  cat "$serve_log" >&2
  exit 1
fi

python3 - "$loadgen_json" "$out_json" <<'EOF'
import json, sys

load_path, out_path = sys.argv[1:3]
with open(load_path) as f:
    load = json.load(f)
with open(out_path) as f:
    trajectory = json.load(f)

entry = trajectory["runs"][-1]
entry["serve"] = {
    "clients": load.get("clients", 0),
    "requests": load.get("requests", 0),
    "throughput_rps": load.get("throughput_rps", 0.0),
    "p50_ms": load.get("p50_ms", 0.0),
    "p99_ms": load.get("p99_ms", 0.0),
    "byte_identical": load.get("byte_identical", False),
}
with open(out_path, "w") as f:
    json.dump(trajectory, f, indent=1)
    f.write("\n")

previous = next((r["serve"] for r in reversed(trajectory["runs"][:-1]) if "serve" in r), None)
s = entry["serve"]
print(f"serve: {s['throughput_rps']:.1f} req/s, p50 {s['p50_ms']:.2f} ms, "
      f"p99 {s['p99_ms']:.2f} ms ({s['clients']} clients, "
      f"bodies {'byte-identical' if s['byte_identical'] else 'DIVERGENT'})")
if previous and previous.get("throughput_rps"):
    change = (s["throughput_rps"] - previous["throughput_rps"]) / previous["throughput_rps"] * 100.0
    flag = "  <-- regression?" if change < -10.0 else ""
    print(f"serve throughput vs previous entry: {change:+.1f}%{flag}")
EOF

# ---- compile stage: compiled sweep throughput --------------------------------
# bench_compile times a 48-row sweep (packed backend, 4 threads) plus the
# per-instance clone cost (Sequential::clone vs CompiledModel::instance_net),
# and emits one JSON document on stdout. Folded into the trajectory entry as
# {"compile": ...} with a delta against the previous entry. Fails loudly,
# like the serve stage.
echo ""
echo "compile bench (compiled sweep rows/s, clone cost)..."
if ! cmake --build "$build_dir" -j --target bench_compile; then
  echo "run_benches.sh: ERROR: bench_compile failed to build; no compile entry." >&2
  exit 1
fi

compile_json="$build_dir/bench_compile_run.json"
if ! "$build_dir/bench_compile" > "$compile_json"; then
  echo "run_benches.sh: ERROR: bench_compile failed." >&2
  exit 1
fi
if [ ! -s "$compile_json" ]; then
  echo "run_benches.sh: ERROR: bench_compile produced no JSON; no compile entry." >&2
  exit 1
fi

python3 - "$compile_json" "$out_json" <<'EOF'
import json, sys

comp_path, out_path = sys.argv[1:3]
with open(comp_path) as f:
    comp = json.load(f)
with open(out_path) as f:
    trajectory = json.load(f)

entry = trajectory["runs"][-1]
entry["compile"] = {
    "threads": comp.get("threads", 0),
    "rows": comp.get("rows", 0),
    "fused_nodes": comp.get("fused_nodes", 0),
    "rows_per_sec_on": comp.get("rows_per_sec_on", 0.0),
    "clone_us_deep": comp.get("clone_us_deep", 0.0),
    "clone_us_instance": comp.get("clone_us_instance", 0.0),
}
with open(out_path, "w") as f:
    json.dump(trajectory, f, indent=1)
    f.write("\n")

c = entry["compile"]
print(f"compile: sweep {c['rows_per_sec_on']:.0f} rows/s at {c['threads']} threads")
print(f"compile: clone {c['clone_us_deep']:.1f} us -> instance_net "
      f"{c['clone_us_instance']:.1f} us")
previous = next((r["compile"] for r in reversed(trajectory["runs"][:-1]) if "compile" in r), None)
if previous and previous.get("rows_per_sec_on"):
    change = (c["rows_per_sec_on"] - previous["rows_per_sec_on"]) / previous["rows_per_sec_on"] * 100.0
    flag = "  <-- regression?" if change < -10.0 else ""
    print(f"compile throughput vs previous entry: {change:+.1f}%{flag}")
EOF

# ---- trace-overhead stage: span tracer cost on the hot sweep path -----------
# Re-run bench_compile with FSA_TRACE=on and compare rows/s against the
# untraced run above (same binary, same machine, back to back). The sweep
# rows here use the sba method, so the delta isolates the span tracer
# itself (OBS_SPAN in sweep.run/sweep.row/compile.*) rather than the
# ADMM convergence recording that also rides the trace flag. Folded into
# the trajectory entry as {"trace_overhead": ...}; the stage FAILS if
# tracing costs more than 3% of compiled-sweep throughput — the tracer's
# documented ceiling (docs/OBSERVABILITY.md).
echo ""
echo "trace-overhead bench (bench_compile with FSA_TRACE=on)..."
# Best-of-3 per variant, interleaved: single invocations on a shared CI
# box jitter by +-5%, which would make a 3% gate flaky; the best of 3
# warm runs is stable to ~1%.
rep=1
while [ "$rep" -le 3 ]; do
  if ! "$build_dir/bench_compile" > "$build_dir/bench_compile_off_$rep.json"; then
    echo "run_benches.sh: ERROR: untraced bench_compile rep $rep failed." >&2
    exit 1
  fi
  if ! FSA_TRACE=on "$build_dir/bench_compile" > "$build_dir/bench_compile_on_$rep.json"; then
    echo "run_benches.sh: ERROR: traced bench_compile rep $rep failed." >&2
    exit 1
  fi
  rep=$((rep + 1))
done

python3 - "$build_dir" "$out_json" <<'EOF'
import json, sys

build_dir, out_path = sys.argv[1:3]

def best(variant):
    rates = []
    for rep in (1, 2, 3):
        with open(f"{build_dir}/bench_compile_{variant}_{rep}.json") as f:
            rates.append(json.load(f).get("rows_per_sec_on", 0.0))
    return max(rates)

off = best("off")  # compiled sweep, tracing off
on = best("on")    # compiled sweep, tracing on
overhead = (off - on) / off * 100.0 if off > 0 else 0.0

with open(out_path) as f:
    trajectory = json.load(f)

entry = trajectory["runs"][-1]
entry["trace_overhead"] = {
    "rows_per_sec_untraced": off,
    "rows_per_sec_traced": on,
    "overhead_pct": overhead,
}
with open(out_path, "w") as f:
    json.dump(trajectory, f, indent=1)
    f.write("\n")

print(f"trace overhead: {off:.0f} -> {on:.0f} rows/s with FSA_TRACE=on "
      f"({overhead:+.1f}%)")
if overhead > 3.0:
    print(f"run_benches.sh: ERROR: span tracing costs {overhead:.1f}% of compiled-sweep "
          f"throughput, above the 3% ceiling", file=sys.stderr)
    sys.exit(1)
EOF

# ---- arena stage: attack↔defense evasion frontier ---------------------------
# bench_arena crosses the vanilla and detection-aware attacks against the
# deployed defenses (checksum/64, range/201/0.10, range/16/0) on digits
# fc3 at the paper's S=2 R=100 budget, reduces the rows through the arena
# reducer, and emits one JSON document on stdout. Its exit code enforces
# the acceptance bar: fsa-l2-evasive must evade strictly more often than
# vanilla fsa-l2 under the strict range deployment. Folded into the
# trajectory entry as {"arena": ...} with a delta against the previous
# entry; fails loudly, like the serve and compile stages.
echo ""
echo "arena bench (attack vs defense evasion frontier)..."
if ! cmake --build "$build_dir" -j --target bench_arena; then
  echo "run_benches.sh: ERROR: bench_arena failed to build; no arena entry." >&2
  exit 1
fi

arena_json="$build_dir/bench_arena_run.json"
if ! "$build_dir/bench_arena" > "$arena_json"; then
  echo "run_benches.sh: ERROR: bench_arena failed (detection-aware attack lost to vanilla?)" >&2
  exit 1
fi
if [ ! -s "$arena_json" ]; then
  echo "run_benches.sh: ERROR: bench_arena produced no JSON; no arena entry." >&2
  exit 1
fi

python3 - "$arena_json" "$out_json" <<'EOF'
import json, sys

arena_path, out_path = sys.argv[1:3]
with open(arena_path) as f:
    arena = json.load(f)
with open(out_path) as f:
    trajectory = json.load(f)

entry = trajectory["runs"][-1]
entry["arena"] = {
    "rows": arena.get("rows", 0),
    "rows_per_sec": arena.get("rows_per_sec", 0.0),
    "detect_rate": arena.get("detect_rate", 0.0),
    "evasion_rate": arena.get("evasion_rate", 0.0),
    "overhead_bytes": arena.get("overhead_bytes", 0),
}
with open(out_path, "w") as f:
    json.dump(trajectory, f, indent=1)
    f.write("\n")

a = entry["arena"]
print(f"arena: {a['rows']} cells at {a['rows_per_sec']:.2f} rows/s, "
      f"detect {a['detect_rate'] * 100.0:.0f}%, evade {a['evasion_rate'] * 100.0:.0f}%, "
      f"defense overhead {a['overhead_bytes']} B")
previous = next((r["arena"] for r in reversed(trajectory["runs"][:-1]) if "arena" in r), None)
if previous:
    if previous.get("rows_per_sec"):
        change = (a["rows_per_sec"] - previous["rows_per_sec"]) / previous["rows_per_sec"] * 100.0
        flag = "  <-- regression?" if change < -10.0 else ""
        print(f"arena throughput vs previous entry: {change:+.1f}%{flag}")
    dshift = (a["evasion_rate"] - previous.get("evasion_rate", 0.0)) * 100.0
    flag = "  <-- frontier moved?" if abs(dshift) > 0.5 else ""
    print(f"arena evasion rate vs previous entry: {dshift:+.1f} pp{flag}")
EOF
