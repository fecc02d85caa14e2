// batcher.h — dynamic request batching for the attack service.
//
// The daemon's whole throughput case: solving N sweep instances in ONE
// SweepRunner::run call amortizes feature-cache lookups and fills the
// thread pool, so concurrent small requests should coalesce. The batcher
// queues submitted requests per BatchKey — requests are only merged when
// their execution context is identical (kind, model, backend, injector
// profile) — and an executor fires a batch when either `max_batch`
// requests are waiting or the OLDEST request has waited `max_delay_ms`
// (so a lone request never waits longer than the deadline, and a burst
// never waits at all).
//
// Determinism is the design constraint batching must not break: every
// sweep instance derives its randomness from its own spec seed and solves
// on its own network clone, so executing requests' specs concatenated in
// one run yields bitwise-identical rows to executing them one at a time
// (serve_test proves byte-identical responses for 1 vs 16 concurrent
// clients). Per-key execution is serialized (one in-flight batch per key);
// distinct keys run concurrently, and the sweep, arena and eval keys of one
// model share that model's SweepRunner, whose bench() cache is locked.
//
// Admission control: the TOTAL queued-request count is bounded by
// `max_queue`; submit() refuses beyond it (the HTTP layer sheds with 429)
// so a burst degrades into fast refusals instead of unbounded memory and
// latency. drain() stops admission, finishes everything queued, and joins
// the executors — the graceful-SIGTERM path.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "eval/json.h"
#include "obs/metrics.h"

namespace fsa::serve {

/// Requests batch together only when every field matches: same handler
/// kind, same model (empty for model-free campaigns), same pinned
/// backend, and the same injector-calibration profile document (its
/// compact dump; "" = built-in defaults).
struct BatchKey {
  std::string kind;
  std::string model;
  std::string backend;
  std::string profile;

  bool operator<(const BatchKey& o) const {
    if (kind != o.kind) return kind < o.kind;
    if (model != o.model) return model < o.model;
    if (backend != o.backend) return backend < o.backend;
    return profile < o.profile;
  }
};

/// What a request resolves to: an HTTP status plus the exact response
/// body bytes (already rendered — byte-identity is the contract, so the
/// executor owns formatting).
struct BatchResponse {
  int status = 200;
  std::string body;
};

/// Execute one batch: `payloads` are the queued request documents in FIFO
/// order; the result MUST parallel them. Called on an executor thread,
/// one batch per key at a time.
using BatchFn =
    std::function<std::vector<BatchResponse>(const BatchKey&, const std::vector<eval::Json>&)>;

struct BatcherOptions {
  int max_batch = 8;     ///< fire when this many requests wait on one key
  int max_delay_ms = 5;  ///< ... or when the oldest has waited this long
  int max_queue = 64;    ///< total queued requests beyond which submit() sheds
  int executors = 2;     ///< executor threads (distinct keys run concurrently)
};

class DynamicBatcher {
 public:
  DynamicBatcher(BatcherOptions options, BatchFn fn);
  ~DynamicBatcher();
  DynamicBatcher(const DynamicBatcher&) = delete;
  DynamicBatcher& operator=(const DynamicBatcher&) = delete;

  /// Queue one request. Returns the future its BatchResponse will arrive
  /// on, or std::nullopt when the queue is full or the batcher is
  /// draining — the caller sheds (HTTP 429/503) instead of blocking.
  std::optional<std::future<BatchResponse>> submit(const BatchKey& key, eval::Json payload);

  /// Stop admission, execute every queued request, join the executors.
  /// Every future obtained from submit() before drain() completes.
  /// Idempotent.
  void drain();

  [[nodiscard]] bool draining() const;

  /// Requests currently queued (excluding in-flight batches).
  [[nodiscard]] std::size_t queue_depth() const;

  /// Counters for GET /stats: queue depth, totals, the batch-size
  /// histogram, and p50/p99 of request latency (submit → response ready,
  /// execution included). All of it reads from this batcher's metrics on
  /// the process-wide obs registry — GET /metrics reports the same
  /// numbers from the same source (the /stats JSON shape is unchanged;
  /// p50/p99 are now histogram-interpolated estimates rather than
  /// nearest-rank over a sample window).
  [[nodiscard]] eval::Json stats_json() const;

 private:
  struct Pending {
    eval::Json payload;
    std::promise<BatchResponse> promise;
    std::chrono::steady_clock::time_point enqueued;
  };
  struct KeyQueue {
    std::deque<Pending> waiting;
    bool busy = false;  ///< an executor is running a batch for this key
  };

  void executor_loop();

  const BatcherOptions options_;
  const BatchFn fn_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<BatchKey, KeyQueue> queues_;
  std::size_t total_queued_ = 0;
  bool draining_ = false;
  bool joined_ = false;

  // Stats live on the process-wide obs registry (one source of truth for
  // /stats and /metrics). Each batcher instance gets its own label set —
  // `{batcher="N"}` — so concurrent batchers (tests, embedded services)
  // never cross-count. Pointers are registry-owned and process-lived.
  obs::Counter* submitted_metric_ = nullptr;
  obs::Counter* shed_metric_ = nullptr;
  obs::Counter* completed_metric_ = nullptr;
  obs::Counter* batches_metric_ = nullptr;
  obs::Gauge* queue_depth_metric_ = nullptr;
  obs::Histogram* batch_size_metric_ = nullptr;  ///< exact bounds 1..max_batch
  obs::Histogram* latency_metric_ = nullptr;     ///< latency ms, exponential buckets

  std::vector<std::thread> executors_;
};

}  // namespace fsa::serve
