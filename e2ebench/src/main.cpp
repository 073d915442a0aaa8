// End-to-end benchmark driver. See ../README.md for the workloads and
// metrics.
//
//   autockt_e2ebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                    [--workdir DIR] [--agent FILE]
//   autockt_e2ebench --make-agent FILE
//
// Prints one line per metric (name, value, unit), timing notes, and as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exit status: 0 when the correctness gate passes, 1 when it fails (the
// JSON still prints, with "correct": false), 2 on bad arguments or an
// error during the run (no JSON).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>

#include "autockt/autockt.hpp"
#include "bench.hpp"
#include "circuits/problems.hpp"
#include "proc_tree.hpp"

namespace e2e {

double tail_quantile(std::size_t samples) {
  double best = 0.5;
  for (double q : {0.75, 0.9, 0.95, 0.99, 0.999}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9) best = q;
  }
  return best;
}

std::string describe_timing(const std::vector<double>& v, double scale,
                            const char* unit) {
  if (v.empty()) return "no samples";
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  const double q = tail_quantile(sorted.size());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  char buf[160];
  std::snprintf(buf, sizeof buf, "median %.4g %s, p%g %.4g %s (n=%zu)",
                median(sorted) * scale, unit, 100.0 * q,
                sorted[std::max<std::size_t>(rank, 1) - 1] * scale, unit,
                sorted.size());
  return buf;
}

namespace {

/// Train the frozen agent deploy_pex and replay_pex load: a fixed-seed
/// ngm_ota schematic run (the paper's transfer flow trains on schematic
/// simulations and deploys on post-layout ones).
int make_agent(const std::string& path) {
  auto problem = std::make_shared<const autockt::circuits::SizingProblem>(
      autockt::circuits::make_ngm_problem());
  autockt::core::AutoCktConfig config;
  config.seed = 11;
  config.ppo.max_iterations = 30;
  config.ppo.steps_per_iteration = 1000;
  const auto outcome = autockt::core::train_agent(
      problem, config, [](const autockt::rl::IterationStats& s) {
        std::fprintf(stderr, "iter %d goal_rate %.3f\n", s.iteration,
                     s.goal_rate);
      });
  std::ofstream out(path);
  outcome.agent.save(out);
  return out ? 0 : 2;
}

void print_json(const Report& report) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
      "\"metrics\": {",
      report.gate_failures.empty() ? "true" : "false", report.attempted,
      report.failed);
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "autockt_e2ebench: %s\nusage: autockt_e2ebench --workload "
               "{train_two_stage|train_tia|deploy_pex|replay_pex} [--seed N] "
               "[--seconds S] [--trace 0|1] [--workdir DIR] [--agent FILE]\n"
               "       autockt_e2ebench --make-agent FILE\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--agent") {
      options.agent_path = value;
    } else if (flag == "--make-agent") {
      return make_agent(value);
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) return usage("no --workload given");
  become_subreaper();

  Report report;
  try {
    report = run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "autockt_e2ebench: %s\n", e.what());
    return 2;
  }
  std::printf("workload %s  seed %llu  trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : report.gate_failures) {
    std::printf("  GATE FAILED: %s\n", f.c_str());
  }
  print_json(report);
  std::fflush(stdout);
  return report.gate_failures.empty() ? 0 : 1;
}
