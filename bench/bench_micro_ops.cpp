// bench_micro_ops.cpp — google-benchmark microbenchmarks of the kernels
// the attack spends its time in: GEMM, conv forward, margin evaluation,
// proximal operators, and a full ADMM iteration on the paper-sized head.
//
// The GEMM section pins the speedup story: BM_GemmSeedSerial is a frozen
// copy of the seed repo's serial i-k-j kernel; BM_Gemm runs the active
// backend at 1/2/4 threads (second arg); BM_GemmBackend/<name>/<size>
// emits one comparison row per registered compute backend at 512³
// (L2-resident) and 2048³ (L2-spilling — where the packed backend's panel
// packing shows up). Every GEMM row reports GFLOP/s alongside wall time.
// Run via tools/run_benches.sh to get the machine-readable
// BENCH_micro_ops.json trajectory; speedup = seed-kernel time / backend
// time at matching sizes.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "backend/compute_backend.h"
#include "core/admm.h"
#include "core/prox.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pool.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace {

using namespace fsa;

double gemm_gflops(const benchmark::State& state, std::int64_t m, std::int64_t k,
                   std::int64_t n) {
  (void)state;
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) * static_cast<double>(n) * 1e-9;
}

/// The seed repo's serial GEMM (i-k-j, zero-skip), kept verbatim as the
/// baseline the backend's acceptance speedup is measured against.
void seed_matmul_acc(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  const float* A = a.data();
  const float* B = b.data();
  float* C = c.data();
  for (std::int64_t i = 0; i < m; ++i) {
    float* Ci = C + i * n;
    const float* Ai = A + i * k;
    for (std::int64_t p = 0; p < k; ++p) {
      const float aip = Ai[p];
      if (aip == 0.0f) continue;
      const float* Bp = B + p * n;
      for (std::int64_t j = 0; j < n; ++j) Ci[j] += aip * Bp[j];
    }
  }
}

void BM_GemmSeedSerial(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape({n, n}), rng);
  const Tensor b = Tensor::randn(Shape({n, n}), rng);
  Tensor c(Shape({n, n}));
  for (auto _ : state) {
    c.fill(0.0f);
    seed_matmul_acc(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] =
      benchmark::Counter(gemm_gflops(state, n, n, n), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmSeedSerial)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond)->UseRealTime();

// Backend GEMM; Args are {size, threads}. The 1-thread rows isolate the
// blocking/tiling win, the 2/4-thread rows add the pool on top.
void BM_Gemm(benchmark::State& state) {
  const auto n = state.range(0);
  const auto threads = static_cast<int>(state.range(1));
  set_num_threads(threads);
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape({n, n}), rng);
  const Tensor b = Tensor::randn(Shape({n, n}), rng);
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  set_num_threads(0);
  state.counters["GFLOPS"] =
      benchmark::Counter(gemm_gflops(state, n, n, n), benchmark::Counter::kIsIterationInvariantRate);
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)
    ->ArgsProduct({{64, 128, 256, 512}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_GemmHeadShape(benchmark::State& state) {
  // The fc3 head at R=1000: [1000, 200] · [200, 10].
  Rng rng(2);
  const Tensor feats = Tensor::randn(Shape({1000, 200}), rng);
  const Tensor w = Tensor::randn(Shape({200, 10}), rng);
  for (auto _ : state) {
    Tensor logits = ops::matmul(feats, w);
    benchmark::DoNotOptimize(logits.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(gemm_gflops(state, 1000, 200, 10),
                                                benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmHeadShape)->UseRealTime();

/// One row per registered compute backend (registered from main(), so new
/// backends show up without a bench edit): square GEMM at 512³, which is
/// L2-resident, and at 2048³, where B alone is 16 MiB and spills L2 — the
/// shape the packed backend's pack-once-reuse-across-jr panels exist for.
/// The per-run trajectory (tools/run_benches.sh) makes the packing win
/// visible release over release.
void register_gemm_backend_benches() {
  for (const auto& name : fsa::backend::backend_names()) {
    for (const std::int64_t size : {std::int64_t{512}, std::int64_t{2048}}) {
      benchmark::RegisterBenchmark(
          ("BM_GemmBackend/" + name + "/" + std::to_string(size)).c_str(),
          [name, size](benchmark::State& state) {
            const std::string saved = backend::active_name();
            backend::set_backend(name);
            Rng rng(1);
            const Tensor a = Tensor::randn(Shape({size, size}), rng);
            const Tensor b = Tensor::randn(Shape({size, size}), rng);
            Tensor c(Shape({size, size}));
            for (auto _ : state) {
              c.fill(0.0f);
              backend::active().gemm_nn_acc(a.data(), b.data(), c.data(), size, size, size);
              benchmark::DoNotOptimize(c.data());
            }
            backend::set_backend(saved);
            state.counters["GFLOPS"] = benchmark::Counter(
                gemm_gflops(state, size, size, size),
                benchmark::Counter::kIsIterationInvariantRate);
          })
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    }
  }
}

// Args are {batch, threads}; the workspace-reusing im2col plus the blocked
// GEMM make this the conv half of the speedup story.
void BM_ConvForward(benchmark::State& state) {
  const auto batch = state.range(0);
  const auto threads = static_cast<int>(state.range(1));
  set_num_threads(threads);
  Rng rng(3);
  nn::Conv2D conv("conv", 32, 32, 3, rng);
  const Tensor x = Tensor::randn(Shape({batch, 32, 26, 26}), rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  set_num_threads(0);
}
BENCHMARK(BM_ConvForward)->ArgsProduct({{1, 16}, {1, 2, 4}});

void BM_MaxPoolForward(benchmark::State& state) {
  Rng rng(4);
  nn::MaxPool2D pool("pool", 2);
  const Tensor x = Tensor::randn(Shape({16, 32, 24, 24}), rng);
  for (auto _ : state) {
    Tensor y = pool.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MaxPoolForward);

void BM_ProxL0(benchmark::State& state) {
  Rng rng(5);
  const Tensor v = Tensor::randn(Shape({state.range(0)}), rng);
  for (auto _ : state) {
    Tensor z = core::prox_l0(v, 200.0);
    benchmark::DoNotOptimize(z.data());
  }
}
BENCHMARK(BM_ProxL0)->Arg(2010)->Arg(205000);

void BM_ProxL2(benchmark::State& state) {
  Rng rng(6);
  const Tensor v = Tensor::randn(Shape({state.range(0)}), rng);
  for (auto _ : state) {
    Tensor z = core::prox_l2(v, 200.0);
    benchmark::DoNotOptimize(z.data());
  }
}
BENCHMARK(BM_ProxL2)->Arg(2010)->Arg(205000);

void BM_MarginEval(benchmark::State& state) {
  const auto r = state.range(0);
  Rng rng(7);
  core::AttackSpec spec;
  spec.S = 4;
  spec.features = Tensor::randn(Shape({r, 200}), rng);
  spec.labels.assign(static_cast<std::size_t>(r), 3);
  const Tensor logits = Tensor::randn(Shape({r, 10}), rng);
  for (auto _ : state) {
    auto e = core::eval_margin(logits, spec);
    benchmark::DoNotOptimize(e.total_g);
  }
}
BENCHMARK(BM_MarginEval)->Arg(10)->Arg(1000);

/// One full ADMM iteration on a paper-sized fc3 head (200→10, R images):
/// z-prox + batched forward/backward + δ/s updates.
void BM_AdmmIteration(benchmark::State& state) {
  const auto r = state.range(0);
  Rng rng(8);
  nn::Sequential net;
  net.add(std::make_unique<nn::Dense>("fc3", 200, 10, rng));
  const core::ParamMask mask = core::ParamMask::make(net, {"fc3"});
  core::AdmmSolver solver(net, mask);
  core::AttackSpec spec;
  spec.S = 2;
  spec.features = Tensor::randn(Shape({r, 200}), rng);
  spec.labels.assign(static_cast<std::size_t>(r), 0);
  for (std::int64_t i = 0; i < spec.S; ++i) spec.labels[static_cast<std::size_t>(i)] = 5;
  core::AdmmConfig cfg;
  cfg.iterations = 1;
  cfg.check_every = 0;
  for (auto _ : state) {
    auto res = solver.solve(spec, cfg);
    benchmark::DoNotOptimize(res.delta.data());
  }
}
BENCHMARK(BM_AdmmIteration)->Arg(10)->Arg(100)->Arg(1000);

// Full ADMM iteration at R=1000 across thread counts — the end-to-end
// number the parallel backend exists to improve.
void BM_AdmmIterationThreads(benchmark::State& state) {
  const auto threads = static_cast<int>(state.range(0));
  set_num_threads(threads);
  Rng rng(8);
  nn::Sequential net;
  net.add(std::make_unique<nn::Dense>("fc3", 200, 10, rng));
  const core::ParamMask mask = core::ParamMask::make(net, {"fc3"});
  core::AdmmSolver solver(net, mask);
  core::AttackSpec spec;
  spec.S = 2;
  spec.features = Tensor::randn(Shape({1000, 200}), rng);
  spec.labels.assign(1000, 0);
  for (std::int64_t i = 0; i < spec.S; ++i) spec.labels[static_cast<std::size_t>(i)] = 5;
  core::AdmmConfig cfg;
  cfg.iterations = 1;
  cfg.check_every = 0;
  for (auto _ : state) {
    auto res = solver.solve(spec, cfg);
    benchmark::DoNotOptimize(res.delta.data());
  }
  set_num_threads(0);
}
BENCHMARK(BM_AdmmIterationThreads)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

// BENCHMARK_MAIN, plus the dynamically registered per-backend GEMM rows.
int main(int argc, char** argv) {
  register_gemm_backend_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
