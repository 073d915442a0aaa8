#pragma once
// Shared pieces of the end-to-end benchmark: run options, the metric list a
// run prints, timing statistics, and the workload / probe entry points.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  std::string agent_path = "e2ebench/data/ngm_ota_agent.txt";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: metrics in print order, the operation
/// counts of the JSON result, and any correctness-gate failures.
struct Report {
  std::vector<Metric> metrics;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> gate_failures;
  /// Human-readable timing lines (median, tail percentile, sample count)
  /// printed ahead of the JSON result.
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (ok || std::find(gate_failures.begin(), gate_failures.end(), what) !=
                  gate_failures.end()) {
      return;
    }
    gate_failures.push_back(what);
  }
};

/// A fresh directory for one run's disk caches, removed when it goes out of
/// scope (on error paths too).
class ScratchDir {
 public:
  explicit ScratchDir(std::filesystem::path path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Median of `v` (0 for an empty sample).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest of the quantiles 0.5/0.75/0.9/0.95/0.99/0.999 that still
/// has at least ten of `samples` beyond it (0.5 when none has).
double tail_quantile(std::size_t samples);

/// "median 1.23 ms, p90 1.50 ms (n=40)"
std::string describe_timing(const std::vector<double>& v, double scale,
                            const char* unit);

Report run_workload(const Options& options);

/// Per-layer probes: each times a public function of one layer on
/// fixed inputs drawn from `seed` and appends its metric.
void run_probes(std::uint64_t seed, const std::string& workdir, Report* out);

}  // namespace e2e
