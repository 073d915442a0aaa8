#include "attribution.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

namespace e2e {

using autockt::eval::EvalResult;
using autockt::eval::ParamVector;
using autockt::eval::SimHint;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
constexpr double kFloorNs = 64.0;
}

void LatencyHistogram::record(std::int64_t ns) {
  const double octaves =
      std::log2(std::max(1.0, static_cast<double>(ns) / kFloorNs));
  const int bucket =
      std::min(kBuckets - 1, static_cast<int>(octaves * kPerOctave));
  buckets_[static_cast<std::size_t>(bucket)].fetch_add(
      1, std::memory_order_relaxed);
}

long LatencyHistogram::count() const {
  long n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

double LatencyHistogram::quantile_ns(double q) const {
  const long n = count();
  if (n == 0) return 0.0;
  // Nearest rank: the smallest bucket whose cumulative count reaches q*n.
  const long rank = std::max(
      1L, static_cast<long>(std::ceil(q * static_cast<double>(n))));
  long seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
    if (seen >= rank) return kFloorNs * std::exp2((b + 0.5) / kPerOctave);
  }
  return kFloorNs * std::exp2(static_cast<double>(kBuckets) / kPerOctave);
}

AttributedBackend::AttributedBackend(
    std::shared_ptr<autockt::eval::EvalBackend> inner, bool timed)
    : inner_(std::move(inner)), timed_(timed) {
  mark_idle(now_ns());
}

void AttributedBackend::mark_idle(std::int64_t t_ns) {
  idle_since_ns_.store(t_ns, std::memory_order_relaxed);
  longest_gap_ns_.store(0, std::memory_order_relaxed);
  longest_gap_end_ns_.store(t_ns, std::memory_order_relaxed);
}

AttributedBackend::Gap AttributedBackend::take_gap() {
  Gap gap;
  gap.longest_ns = longest_gap_ns_.exchange(0, std::memory_order_relaxed);
  gap.longest_end_ns = longest_gap_end_ns_.load(std::memory_order_relaxed);
  gap.idle_since_ns = idle_since_ns_.load(std::memory_order_relaxed);
  return gap;
}

std::int64_t AttributedBackend::enter() {
  if (!timed_) return 0;
  const std::int64_t t = now_ns();
  if (in_flight_.fetch_add(1, std::memory_order_relaxed) == 0) {
    const std::int64_t gap =
        t - idle_since_ns_.load(std::memory_order_relaxed);
    if (gap > longest_gap_ns_.load(std::memory_order_relaxed)) {
      longest_gap_ns_.store(gap, std::memory_order_relaxed);
      longest_gap_end_ns_.store(t, std::memory_order_relaxed);
    }
    busy_start_ns_.store(t, std::memory_order_relaxed);
  }
  return t;
}

void AttributedBackend::leave(std::int64_t start_ns, bool batch) {
  if (!timed_) return;
  const std::int64_t t = now_ns();
  if (batch) batch_latency_.record(t - start_ns);
  if (in_flight_.fetch_sub(1, std::memory_order_relaxed) == 1) {
    busy_ns_.fetch_add(t - busy_start_ns_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    idle_since_ns_.store(t, std::memory_order_relaxed);
  }
}

void AttributedBackend::count(const EvalResult& result) {
  if (result.ok()) return;
  errors_.fetch_add(1, std::memory_order_relaxed);
  if (autockt::eval::is_transport_error(result)) {
    transport_errors_.fetch_add(1, std::memory_order_relaxed);
  }
}

EvalResult AttributedBackend::do_evaluate(const ParamVector& params,
                                          SimHint* hint) {
  const std::int64_t start = enter();
  EvalResult result = inner_->evaluate(params, hint);
  leave(start, false);
  points_.fetch_add(1, std::memory_order_relaxed);
  count(result);
  return result;
}

std::vector<EvalResult> AttributedBackend::do_evaluate_batch(
    const std::vector<ParamVector>& points,
    const std::vector<SimHint*>& hints) {
  const std::int64_t start = enter();
  std::vector<EvalResult> results = dispatch_batch(*inner_, points, hints);
  leave(start, true);
  points_.fetch_add(static_cast<long>(points.size()),
                    std::memory_order_relaxed);
  for (const EvalResult& r : results) count(r);
  return results;
}

}  // namespace e2e
