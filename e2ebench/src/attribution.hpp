#pragma once
// Outside-in attribution for the eval layer. AttributedBackend decorates a
// problem's outermost EvalBackend and, with timing on, records what the
// layer cannot report about itself: the union of intervals in which at
// least one call was in flight (across all calling threads), a per-call
// latency histogram, and the longest eval-free gap since it was last
// asked — which is how the benchmark finds the PPO update (the eval-free
// tail after rollout collection) without a span inside the trainer.
//
// All state is relaxed atomic counters. The in-flight bookkeeping is a
// measurement, not a synchronisation protocol: two threads crossing the
// idle/busy boundary in the same instant can misattribute a few
// nanoseconds, never a whole call. With timing off only the point and
// error counters run (the untraced benchmark run needs them for ok_frac).

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "eval/backend.hpp"

namespace e2e {

/// Monotonic clock in nanoseconds (steady_clock).
std::int64_t now_ns();

/// Log-spaced latency histogram: 16 buckets per octave from 64 ns
/// (~4.4% bucket width), relaxed atomic counts.
class LatencyHistogram {
 public:
  void record(std::int64_t ns);
  long count() const;
  /// Nearest-rank quantile in nanoseconds (bucket centre).
  double quantile_ns(double q) const;

 private:
  static constexpr int kPerOctave = 16;
  static constexpr int kBuckets = 40 * kPerOctave;
  std::array<std::atomic<long>, kBuckets> buckets_{};
};

class AttributedBackend final : public autockt::eval::EvalBackend {
 public:
  AttributedBackend(std::shared_ptr<autockt::eval::EvalBackend> inner,
                    bool timed);

  std::string name() const override {
    return "attributed(" + inner_->name() + ")";
  }
  bool prefers_batch() const override { return inner_->prefers_batch(); }

  long points() const { return points_.load(std::memory_order_relaxed); }
  long errors() const { return errors_.load(std::memory_order_relaxed); }
  /// Errors that are transport failures (worker crash or timeout), as
  /// opposed to simulator verdicts such as DC non-convergence.
  long transport_errors() const {
    return transport_errors_.load(std::memory_order_relaxed);
  }
  double busy_s() const {
    return 1e-9 *
           static_cast<double>(busy_ns_.load(std::memory_order_relaxed));
  }
  const LatencyHistogram& batch_latency() const { return batch_latency_; }

  /// The longest eval-free interval since the previous take_gap() (or
  /// since mark_idle()), where it ended, and when the layer last went idle.
  struct Gap {
    std::int64_t longest_ns = 0;
    std::int64_t longest_end_ns = 0;
    std::int64_t idle_since_ns = 0;
  };
  Gap take_gap();
  /// Start measuring gaps from `t_ns` (the beginning of a timed phase).
  void mark_idle(std::int64_t t_ns);

 protected:
  autockt::eval::EvalResult do_evaluate(
      const autockt::eval::ParamVector& params,
      autockt::eval::SimHint* hint) override;
  std::vector<autockt::eval::EvalResult> do_evaluate_batch(
      const std::vector<autockt::eval::ParamVector>& points,
      const std::vector<autockt::eval::SimHint*>& hints) override;
  autockt::eval::EvalStats inner_stats() const override {
    return inner_->stats();
  }
  void reset_inner_stats() override { inner_->reset_stats(); }

 private:
  std::int64_t enter();
  void leave(std::int64_t start_ns, bool batch);
  void count(const autockt::eval::EvalResult& result);

  std::shared_ptr<autockt::eval::EvalBackend> inner_;
  const bool timed_;
  std::atomic<long> points_{0};
  std::atomic<long> errors_{0};
  std::atomic<long> transport_errors_{0};
  std::atomic<int> in_flight_{0};
  std::atomic<std::int64_t> busy_start_ns_{0};
  std::atomic<std::int64_t> busy_ns_{0};
  std::atomic<std::int64_t> idle_since_ns_{0};
  std::atomic<std::int64_t> longest_gap_ns_{0};
  std::atomic<std::int64_t> longest_gap_end_ns_{0};
  LatencyHistogram batch_latency_;
};

}  // namespace e2e
