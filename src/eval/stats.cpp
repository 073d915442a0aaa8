#include "eval/stats.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

namespace autockt::eval {

EvalStats& EvalStats::operator+=(const EvalStats& other) {
  simulations += other.simulations;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  batch_calls += other.batch_calls;
  batch_points += other.batch_points;
  max_batch = std::max(max_batch, other.max_batch);
  pending_batches += other.pending_batches;
  sim_seconds += other.sim_seconds;
  newton_iterations += other.newton_iterations;
  symbolic_factorizations += other.symbolic_factorizations;
  numeric_factorizations += other.numeric_factorizations;
  dense_fallbacks += other.dense_fallbacks;
  warm_start_attempts += other.warm_start_attempts;
  warm_start_hits += other.warm_start_hits;
  batch_refactorizations += other.batch_refactorizations;
  disk_hits += other.disk_hits;
  disk_appends += other.disk_appends;
  worker_dispatches += other.worker_dispatches;
  worker_retries += other.worker_retries;
  worker_restarts += other.worker_restarts;
  return *this;
}

EvalStats EvalStats::operator+(const EvalStats& other) const {
  EvalStats out = *this;
  out += other;
  return out;
}

EvalStats EvalStats::since(const EvalStats& before) const {
  EvalStats out;
  out.simulations = simulations - before.simulations;
  out.cache_hits = cache_hits - before.cache_hits;
  out.cache_misses = cache_misses - before.cache_misses;
  out.batch_calls = batch_calls - before.batch_calls;
  out.batch_points = batch_points - before.batch_points;
  out.max_batch = max_batch;            // a high-water mark does not subtract
  out.pending_batches = pending_batches;  // a gauge does not subtract either
  out.sim_seconds = sim_seconds - before.sim_seconds;
  out.newton_iterations = newton_iterations - before.newton_iterations;
  out.symbolic_factorizations =
      symbolic_factorizations - before.symbolic_factorizations;
  out.numeric_factorizations =
      numeric_factorizations - before.numeric_factorizations;
  out.dense_fallbacks = dense_fallbacks - before.dense_fallbacks;
  out.warm_start_attempts = warm_start_attempts - before.warm_start_attempts;
  out.warm_start_hits = warm_start_hits - before.warm_start_hits;
  out.batch_refactorizations =
      batch_refactorizations - before.batch_refactorizations;
  out.disk_hits = disk_hits - before.disk_hits;
  out.disk_appends = disk_appends - before.disk_appends;
  out.worker_dispatches = worker_dispatches - before.worker_dispatches;
  out.worker_retries = worker_retries - before.worker_retries;
  out.worker_restarts = worker_restarts - before.worker_restarts;
  return out;
}

double EvalStats::cache_hit_rate() const {
  const long total = cache_lookups();
  return total == 0 ? 0.0
                    : static_cast<double>(cache_hits) /
                          static_cast<double>(total);
}

double EvalStats::mean_batch_size() const {
  return batch_calls == 0 ? 0.0
                          : static_cast<double>(batch_points) /
                                static_cast<double>(batch_calls);
}

double EvalStats::warm_start_hit_rate() const {
  return warm_start_attempts == 0
             ? 0.0
             : static_cast<double>(warm_start_hits) /
                   static_cast<double>(warm_start_attempts);
}

std::vector<std::pair<const char*, double>> EvalStats::fields() const {
  return {
      {"simulations", static_cast<double>(simulations)},
      {"cache_hits", static_cast<double>(cache_hits)},
      {"cache_misses", static_cast<double>(cache_misses)},
      {"batch_calls", static_cast<double>(batch_calls)},
      {"batch_points", static_cast<double>(batch_points)},
      {"max_batch", static_cast<double>(max_batch)},
      {"pending_batches", static_cast<double>(pending_batches)},
      {"sim_seconds", sim_seconds},
      {"newton_iterations", static_cast<double>(newton_iterations)},
      {"symbolic_factorizations", static_cast<double>(symbolic_factorizations)},
      {"numeric_factorizations", static_cast<double>(numeric_factorizations)},
      {"dense_fallbacks", static_cast<double>(dense_fallbacks)},
      {"warm_start_attempts", static_cast<double>(warm_start_attempts)},
      {"warm_start_hits", static_cast<double>(warm_start_hits)},
      {"batch_refactorizations", static_cast<double>(batch_refactorizations)},
      {"disk_hits", static_cast<double>(disk_hits)},
      {"disk_appends", static_cast<double>(disk_appends)},
      {"worker_dispatches", static_cast<double>(worker_dispatches)},
      {"worker_retries", static_cast<double>(worker_retries)},
      {"worker_restarts", static_cast<double>(worker_restarts)},
  };
}

std::string EvalStats::summary() const {
  // Rendered from fields() so a new counter can never be silently missing
  // from the dump (the format is pinned by tests/test_eval.cpp).
  std::string out;
  out.reserve(384);
  char buf[64];
  for (const auto& [name, value] : fields()) {
    if (!out.empty()) out.push_back(' ');
    if (std::string_view(name) == "sim_seconds") {
      std::snprintf(buf, sizeof(buf), "%s=%.3f", name, value);
    } else {
      std::snprintf(buf, sizeof(buf), "%s=%ld", name,
                    static_cast<long>(value));
    }
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                " cache_hit_rate=%.1f%% warm_start_hit_rate=%.1f%%",
                100.0 * cache_hit_rate(), 100.0 * warm_start_hit_rate());
  out += buf;
  return out;
}

EvalStats StatsCollector::snapshot() const {
  EvalStats s;
  s.simulations = simulations_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.batch_calls = batch_calls_.load(std::memory_order_relaxed);
  s.batch_points = batch_points_.load(std::memory_order_relaxed);
  s.max_batch = max_batch_.load(std::memory_order_relaxed);
  s.pending_batches = pending_batches_.load(std::memory_order_relaxed);
  s.sim_seconds =
      static_cast<double>(sim_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  s.disk_appends = disk_appends_.load(std::memory_order_relaxed);
  s.worker_dispatches = worker_dispatches_.load(std::memory_order_relaxed);
  s.worker_retries = worker_retries_.load(std::memory_order_relaxed);
  s.worker_restarts = worker_restarts_.load(std::memory_order_relaxed);
  return s;
}

void StatsCollector::reset() {
  simulations_.store(0, std::memory_order_relaxed);
  cache_hits_.store(0, std::memory_order_relaxed);
  cache_misses_.store(0, std::memory_order_relaxed);
  batch_calls_.store(0, std::memory_order_relaxed);
  batch_points_.store(0, std::memory_order_relaxed);
  max_batch_.store(0, std::memory_order_relaxed);
  // pending_batches_ is a live gauge, not an accumulator: resetting it
  // while a batch is in flight would underflow on end_pending_batch().
  sim_nanos_.store(0, std::memory_order_relaxed);
  disk_hits_.store(0, std::memory_order_relaxed);
  disk_appends_.store(0, std::memory_order_relaxed);
  worker_dispatches_.store(0, std::memory_order_relaxed);
  worker_retries_.store(0, std::memory_order_relaxed);
  worker_restarts_.store(0, std::memory_order_relaxed);
}

}  // namespace autockt::eval
