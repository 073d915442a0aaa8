#pragma once
// Instrumentation for the evaluation layer. Every backend keeps a
// StatsCollector (lock-free atomic counters, safe under the PPO rollout
// workers) and exposes an EvalStats snapshot; decorator stacks merge
// snapshots so the top of the stack reports the whole pipeline: real
// simulations run, cache hits/misses, batch shapes and simulator wall time.

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace autockt::eval {

/// Plain-value snapshot of evaluation activity. Field ownership is
/// per-layer so that merging never double counts:
///  * simulations / sim_seconds — the FunctionBackend leaf
///  * cache_hits / cache_misses — CachedBackend
///  * batch_* — the outermost backend that received an evaluate_batch call
struct EvalStats {
  long simulations = 0;   // real simulator invocations (PEX: one per corner)
  long cache_hits = 0;    // evaluations answered from the memo cache
  long cache_misses = 0;  // evaluations that had to reach the simulator
  long batch_calls = 0;   // evaluate_batch() invocations
  long batch_points = 0;  // points submitted through evaluate_batch()
  long max_batch = 0;     // largest single batch seen
  /// Gauge: evaluate_batch() calls in flight when the snapshot was taken.
  /// Nonzero only when sampled concurrently with rollout workers (e.g. a
  /// monitoring thread watching lockstep collection); quiescent stacks
  /// report 0.
  long pending_batches = 0;
  double sim_seconds = 0.0;  // wall time spent inside simulator calls

  // ---- simulation-kernel counters ---------------------------------------
  // Filled by SizingProblem::eval_stats() from the spice workspace's
  // process-wide counters (the eval layer itself never touches the
  // simulator): Newton work, the symbolic/numeric factorization split of
  // the sparse kernel, and warm-start effectiveness.
  long newton_iterations = 0;
  long symbolic_factorizations = 0;
  long numeric_factorizations = 0;
  long dense_fallbacks = 0;       // scale-aware pivot check bailouts
  long warm_start_attempts = 0;
  long warm_start_hits = 0;
  // Batched numeric kernel (SparseLuNumericBatch): each batched
  // refactorization factors `batch_lanes / batch_refactorizations` value
  // lanes over one shared elimination program; lane fallbacks count lanes
  // that failed the per-lane pivot check and retired to the dense LU
  // (every lane fallback also counts in dense_fallbacks).
  long batch_refactorizations = 0;
  long batch_lanes = 0;
  long batch_lane_fallbacks = 0;

  // ---- persistent / distributed tier -------------------------------------
  // Filled by CachedBackend (disk_*) and ProcessPoolBackend (worker_*).
  long disk_hits = 0;     // cache hits served by entries replayed from disk
  long disk_appends = 0;  // memo entries appended to the on-disk log
  long worker_dispatches = 0;  // request round trips to pool workers
  long worker_retries = 0;     // requests retried after a crash/timeout
  long worker_restarts = 0;    // workers replaced by a fresh fork

  EvalStats& operator+=(const EvalStats& other);
  EvalStats operator+(const EvalStats& other) const;
  /// Activity since `before` was snapshotted (counter-wise difference).
  EvalStats since(const EvalStats& before) const;

  /// Evaluations that passed through a cache layer (hits + misses). Zero
  /// for cache-less stacks even when simulations ran — use `simulations`
  /// for raw simulator traffic.
  long cache_lookups() const { return cache_hits + cache_misses; }
  /// Hits over lookups; 0 when no cache layer saw any traffic.
  double cache_hit_rate() const;
  double mean_batch_size() const;
  /// Warm-start hits over attempts; 0 when warm starting never ran.
  double warm_start_hit_rate() const;

  /// Every public field as a (canonical name, value) row, in declaration
  /// order. The single source of truth for dumps: summary() renders it,
  /// bench_snapshot emits it, and the OBSERVABILITY.md glossary test
  /// cross-checks it — adding a field here keeps all three in sync.
  std::vector<std::pair<const char*, double>> fields() const;

  /// One-line human-readable summary for logs and example binaries. Names
  /// every public field (pinned by tests/test_eval.cpp) plus the derived
  /// cache_hit_rate / warm_start_hit_rate percentages.
  std::string summary() const;
};

/// Thread-safe accumulator backing EvalStats. Backends mutate it from
/// const-qualified evaluation paths, hence the mutable use sites.
class StatsCollector {
 public:
  void add_simulations(long n, double seconds) {
    simulations_.fetch_add(n, std::memory_order_relaxed);
    sim_nanos_.fetch_add(static_cast<std::int64_t>(seconds * 1e9),
                         std::memory_order_relaxed);
  }
  void add_cache_hit() { cache_hits_.fetch_add(1, std::memory_order_relaxed); }
  void add_cache_hits(long n) {
    cache_hits_.fetch_add(n, std::memory_order_relaxed);
  }
  void add_cache_miss() {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_batch(long points) {
    batch_calls_.fetch_add(1, std::memory_order_relaxed);
    batch_points_.fetch_add(points, std::memory_order_relaxed);
    long prev = max_batch_.load(std::memory_order_relaxed);
    while (prev < points &&
           !max_batch_.compare_exchange_weak(prev, points,
                                             std::memory_order_relaxed)) {
    }
  }
  void begin_pending_batch() {
    pending_batches_.fetch_add(1, std::memory_order_relaxed);
  }
  void end_pending_batch() {
    pending_batches_.fetch_sub(1, std::memory_order_relaxed);
  }
  void add_disk_hit() { disk_hits_.fetch_add(1, std::memory_order_relaxed); }
  void add_disk_append() {
    disk_appends_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_worker_dispatch() {
    worker_dispatches_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_worker_retry() {
    worker_retries_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_worker_restart() {
    worker_restarts_.fetch_add(1, std::memory_order_relaxed);
  }

  EvalStats snapshot() const;
  void reset();

 private:
  std::atomic<long> simulations_{0};
  std::atomic<long> cache_hits_{0};
  std::atomic<long> cache_misses_{0};
  std::atomic<long> batch_calls_{0};
  std::atomic<long> batch_points_{0};
  std::atomic<long> max_batch_{0};
  std::atomic<long> pending_batches_{0};
  std::atomic<std::int64_t> sim_nanos_{0};
  std::atomic<long> disk_hits_{0};
  std::atomic<long> disk_appends_{0};
  std::atomic<long> worker_dispatches_{0};
  std::atomic<long> worker_retries_{0};
  std::atomic<long> worker_restarts_{0};
};

}  // namespace autockt::eval
