// bench_snapshot: the perf-trajectory capture tool. Runs a fixed set of
// self-timed micro workloads (mirroring bench_micro_sim without needing
// Google Benchmark, plus a PEX batch, the PPO update minibatch, policy
// inference and the Adam step) plus fixed-seed deterministic
// counter workloads (a short synthetic PPO run, a warm-started kernel
// characterization loop, a cache-hit loop, a traced evaluation loop), and
// writes one normalized BENCH_<context>.json snapshot:
//
//   {"schema": "autockt-bench-v1",
//    "context": {label, git_sha, host, cores, compiler, build,
//                trace_compiled},
//    "calibration_ns_per_op": <machine-speed yardstick>,
//    "benches": {name: {"ns_per_op": N, "reps": R}, ...},
//    "counters": {name: value, ...}}
//
// bench_diff compares two snapshots: timings are normalized by the
// calibration ratio so a faster/slower machine does not read as a
// regression, counters sit in tolerance bands (see bench_diff.cpp).
// Counter values are deterministic for a fixed seed on a given
// libm/compiler; docs/EXPERIMENTS.md documents when to refresh the
// committed BENCH_seed.json baseline.
//
// Usage: bench_snapshot [--out=BENCH_local.json] [--label=local]
//                       [--sha=<git sha>] [--reps-scale=1.0]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autockt/autockt.hpp"
#include "circuits/problems.hpp"
#include "circuits/synthetic.hpp"
#include "circuits/tia.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "env/vector_env.hpp"
#include "eval/types.hpp"
#include "nn/mlp.hpp"
#include "spec/target_sampler.hpp"
#include "spice/workspace.hpp"
#include "trace/names.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace autockt;

namespace {

/// Mirrors bench_micro_sim: full-eval workloads measure the raw simulator,
/// not the memo cache (eval_cache_hit measures that).
circuits::ProblemOptions raw_options() {
  circuits::ProblemOptions options;
  options.cache = false;
  return options;
}

struct BenchRow {
  std::string name;
  double ns_per_op = 0.0;
  int reps = 0;
};

/// Self-timed bench: a short warmup, then `reps` calls split across 5
/// timed batches, reporting the FASTEST batch's ns/op. The minimum is the
/// standard defense against scheduler interference on shared runners — an
/// interrupted batch only inflates the mean, it cannot deflate the min —
/// and the 2x tolerance band in bench_diff absorbs what is left.
BenchRow time_bench(const std::string& name, int reps,
                    const std::function<void(int)>& body) {
  const int batches = 5;
  const int per_batch = reps / batches + 1;
  const int warmup = per_batch / 2 + 1;
  int n = 0;
  for (int i = 0; i < warmup; ++i) body(n++);
  double best_ns = 0.0;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < per_batch; ++i) body(n++);
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(per_batch);
    if (b == 0 || ns < best_ns) best_ns = ns;
  }
  std::printf("[bench] %-32s %12.0f ns/op  (min of %d x %d reps)\n",
              name.c_str(), best_ns, batches, per_batch);
  return BenchRow{name, best_ns, batches * per_batch};
}

/// Fixed arithmetic loop whose ns/op acts as the machine-speed yardstick:
/// bench_diff divides both snapshots' timings by their own calibration
/// before comparing, so baseline and candidate need not share hardware.
double run_calibration() {
  volatile double sink = 0.0;
  const auto body = [&](int) {
    double x = 1.0;
    for (int i = 1; i <= 2000; ++i) {
      x = x * 0.999999 + 1.0 / static_cast<double>(i);
    }
    sink = sink + x;
  };
  return time_bench("calibration", 2000, body).ns_per_op;
}

/// Repeated characterization of a fixed topology with a walking parameter —
/// the RL trajectory workload, same shape as bench_micro_sim's
/// repeated_characterization (cold vs warm-started Newton).
BenchRow two_stage_characterize(const std::string& name, bool warm,
                                int reps) {
  const auto card = spice::TechCard::ptm45();
  eval::OpHint hint;
  return time_bench(name, reps, [&](int i) {
    circuits::TwoStageParams p;
    p.w12 = (10.0 + 0.25 * (i % 8)) * 1e-6;  // +-1-grid-step walk
    circuits::OpampBuildOptions opt;
    opt.hint = warm ? &hint : nullptr;
    if (!circuits::simulate_two_stage(p, card, opt).ok()) {
      std::fprintf(stderr, "[bench] two-stage characterization failed\n");
      std::exit(2);
    }
  });
}

BenchRow tia_characterize_warm(int reps) {
  const auto card = spice::TechCard::ptm45();
  eval::OpHint hint;
  return time_bench("tia_characterize_sparse_warm", reps, [&](int i) {
    circuits::TiaParams p;
    p.mn = 8 + (i % 4);
    circuits::TiaBuildOptions opt;
    opt.hint = &hint;
    if (!circuits::simulate_tia(p, card, opt).ok()) {
      std::fprintf(stderr, "[bench] tia characterization failed\n");
      std::exit(2);
    }
  });
}

/// Batched characterization at `lanes` lanes, reported as ns PER DESIGN so
/// the row reads directly against its scalar `..._sparse_warm` counterpart:
/// the batch-kernel speedup is the ratio of the two rows.
BenchRow two_stage_characterize_batch(int lanes, int reps) {
  const auto card = spice::TechCard::ptm45();
  std::vector<eval::OpHint> hints(static_cast<std::size_t>(lanes));
  std::vector<eval::OpHint*> hint_ptrs;
  for (auto& h : hints) hint_ptrs.push_back(&h);
  std::vector<circuits::TwoStageParams> params(
      static_cast<std::size_t>(lanes));
  BenchRow row = time_bench(
      "two_stage_characterize_batch" + std::to_string(lanes), reps,
      [&](int i) {
        for (int l = 0; l < lanes; ++l) {
          params[static_cast<std::size_t>(l)].w12 =
              (10.0 + 0.25 * ((i + l) % 8)) * 1e-6;
        }
        for (const auto& r :
             circuits::simulate_two_stage_batch(params, card, {}, hint_ptrs)) {
          if (!r.ok()) {
            std::fprintf(stderr, "[bench] batched two-stage failed\n");
            std::exit(2);
          }
        }
      });
  row.ns_per_op /= static_cast<double>(lanes);  // per design, not per batch
  return row;
}

BenchRow tia_characterize_batch(int lanes, int reps) {
  const auto card = spice::TechCard::ptm45();
  std::vector<eval::OpHint> hints(static_cast<std::size_t>(lanes));
  std::vector<eval::OpHint*> hint_ptrs;
  for (auto& h : hints) hint_ptrs.push_back(&h);
  std::vector<circuits::TiaParams> params(static_cast<std::size_t>(lanes));
  BenchRow row = time_bench(
      "tia_characterize_batch" + std::to_string(lanes), reps, [&](int i) {
        for (int l = 0; l < lanes; ++l) {
          params[static_cast<std::size_t>(l)].mn = 8 + ((i + l) % 4);
        }
        for (const auto& r :
             circuits::simulate_tia_batch(params, card, {}, hint_ptrs)) {
          if (!r.ok()) {
            std::fprintf(stderr, "[bench] batched tia failed\n");
            std::exit(2);
          }
        }
      });
  row.ns_per_op /= static_cast<double>(lanes);
  return row;
}

/// 16 uncached PEX points through evaluate_batch: every PVT corner of every
/// point is a lane of one 48-lane call, then the worst-case fold. Reported
/// per point, like e2ebench's pex.eval_us_per_point probe.
BenchRow pex_eval_batch16(int reps) {
  const auto prob = circuits::make_ngm_pex_problem(raw_options());
  util::Rng rng(42);
  std::vector<eval::ParamVector> points(16);
  for (auto& p : points) {
    for (const auto& def : prob.params) {
      p.push_back(static_cast<int>(
          rng.bounded(static_cast<std::uint64_t>(def.grid_size()))));
    }
  }
  BenchRow row = time_bench("pex_eval_batch16", reps, [&](int) {
    prob.evaluate_batch(points);
  });
  row.ns_per_op /= static_cast<double>(points.size());
  return row;
}

// ---- neural-network workloads -----------------------------------------------
// The PPO nets at the two-stage op-amp's real shapes: observation width and
// parameter count come from the problem's environment.

struct PpoNets {
  int obs;
  nn::Mlp policy;
  nn::Mlp value;
};

PpoNets two_stage_nets() {
  auto problem = std::make_shared<const circuits::SizingProblem>(
      circuits::make_two_stage_problem(raw_options()));
  const env::SizingEnv env(problem, env::EnvConfig{});
  const int obs = env.obs_size();
  const int logits = static_cast<int>(problem->params.size()) *
                     env::SizingEnv::kActionsPerParam;
  return {obs,
          nn::Mlp({obs, 50, 50, 50, logits}, nn::Activation::Tanh, 1, 0.01),
          nn::Mlp({obs, 50, 50, 50, 1}, nn::Activation::Tanh, 2)};
}

std::vector<double> uniform_rows(std::size_t n, std::uint64_t seed,
                                 double scale) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = scale * rng.uniform(-1.0, 1.0);
  return v;
}

/// One PPO update minibatch: 256 rows through policy and value in the
/// update's 64-row chunks (forward_trace_batch + backward_batch), then an
/// Adam step per net, serially on one thread.
BenchRow ppo_update_minibatch(int reps) {
  constexpr int kRows = 256;
  constexpr int kChunk = 64;
  PpoNets nets = two_stage_nets();
  nn::Mlp& policy = nets.policy;
  nn::Mlp& value = nets.value;
  nn::Adam opt_policy(policy.param_count(), 3e-4);
  nn::Adam opt_value(value.param_count(), 1e-3);
  const std::size_t obs = static_cast<std::size_t>(nets.obs);
  const auto x = uniform_rows(kRows * obs, 5, 1.0);
  const auto d_policy = uniform_rows(
      kRows * static_cast<std::size_t>(policy.output_size()), 6, 1e-3);
  const auto d_value = uniform_rows(kRows, 7, 1e-3);
  auto policy_trace = policy.batch_trace(kChunk);
  auto value_trace = value.batch_trace(kChunk);
  const auto minibatch = [&](nn::Mlp& net, nn::Mlp::BatchTrace& trace,
                             nn::Adam& opt, const std::vector<double>& d) {
    const std::size_t out = static_cast<std::size_t>(net.output_size());
    net.zero_grad();
    for (std::size_t r = 0; r < kRows; r += kChunk) {
      net.forward_trace_batch(x.data() + r * obs, kChunk, trace);
      net.backward_batch(trace, d.data() + r * out);
    }
    opt.step(net.params(), net.grads());
  };
  return time_bench("ppo_update_minibatch256", reps, [&](int) {
    minibatch(policy, policy_trace, opt_policy, d_policy);
    minibatch(value, value_trace, opt_value, d_value);
  });
}

/// Rollout inference: one 16-row policy forward_batch.
BenchRow policy_forward16(int reps) {
  const PpoNets nets = two_stage_nets();
  const auto x = uniform_rows(16 * static_cast<std::size_t>(nets.obs), 8, 1.0);
  volatile double sink = 0.0;
  return time_bench("policy_forward16", reps, [&](int) {
    sink = sink + nets.policy.forward_batch(x, 16)[0];
  });
}

/// One Adam step over the policy's parameters.
BenchRow adam_step_policy(int reps) {
  PpoNets nets = two_stage_nets();
  nn::Adam adam(nets.policy.param_count(), 3e-4);
  const std::vector<double> grads(nets.policy.param_count(), 1e-3);
  return time_bench("adam_step_policy", reps, [&](int) {
    adam.step(nets.policy.params(), grads);
  });
}

// ---- deterministic counter workloads ---------------------------------------
// Everything below runs with fixed seeds and single-threaded evaluation so
// that the emitted counters are reproducible run-to-run on one machine.
// (Across machines, libm rounding differences can nudge Newton iteration
// and episode counts — bench_diff's counter tolerance bands absorb that.)

using CounterRows = std::vector<std::pair<std::string, double>>;

/// Every EvalStats field except sim_seconds (wall time — that is what the
/// timed benches are for), prefixed into the flat counter namespace.
void append_eval_stats(CounterRows& rows, const std::string& prefix,
                       const eval::EvalStats& stats) {
  for (const auto& [name, value] : stats.fields()) {
    if (std::string(name) == "sim_seconds") continue;
    rows.emplace_back(prefix + name, value);
  }
}

/// Short fixed-seed synthetic PPO run (num_workers=1 keeps collection
/// inline and the simulation counts exactly reproducible).
void training_counters(CounterRows& rows) {
  std::printf("[bench] training counters (synthetic, fixed seed)...\n");
  auto problem = std::make_shared<const circuits::SizingProblem>(
      circuits::make_synthetic_problem(3, 21));
  core::AutoCktConfig config;
  config.seed = 7;
  config.env_config.horizon = 12;
  config.train_target_count = 12;
  config.ppo.max_iterations = 3;
  config.ppo.steps_per_iteration = 300;
  config.ppo.num_workers = 1;
  config.holdout_target_count = 8;
  config.holdout_interval = 2;
  problem->reset_eval_stats();
  const auto outcome = core::train_agent(problem, config);
  rows.emplace_back("train.final_train_goal_rate",
                    outcome.history.iterations.back().goal_rate);
  rows.emplace_back("train.final_holdout_goal_rate",
                    outcome.history.final_holdout_goal_rate);
  append_eval_stats(rows, "train.", problem->eval_stats());
}

/// Warm-started sparse characterization of the TIA: the kernel counters
/// (Newton iterations, factorization split, warm-start effectiveness) for a
/// fixed 16-step parameter walk.
void kernel_counters_rows(CounterRows& rows) {
  std::printf("[bench] kernel counters (tia walk)...\n");
  const auto card = spice::TechCard::ptm45();
  spice::reset_kernel_stats();
  eval::OpHint hint;
  for (int i = 0; i < 16; ++i) {
    circuits::TiaParams p;
    p.mn = 8 + (i % 4);
    circuits::TiaBuildOptions opt;
    opt.hint = &hint;
    if (!circuits::simulate_tia(p, card, opt).ok()) {
      std::fprintf(stderr, "[bench] tia counter workload failed\n");
      std::exit(2);
    }
  }
  const spice::KernelStats k = spice::kernel_stats_snapshot();
  rows.emplace_back("kernel.newton_iterations", k.newton_iterations);
  rows.emplace_back("kernel.symbolic_factorizations",
                    k.symbolic_factorizations);
  rows.emplace_back("kernel.numeric_factorizations", k.numeric_factorizations);
  rows.emplace_back("kernel.dense_fallbacks", k.dense_fallbacks);
  rows.emplace_back("kernel.warm_start_attempts", k.warm_start_attempts);
  rows.emplace_back("kernel.warm_start_hits", k.warm_start_hits);
  const double warm_rate =
      k.warm_start_attempts == 0
          ? 0.0
          : static_cast<double>(k.warm_start_hits) /
                static_cast<double>(k.warm_start_attempts);
  rows.emplace_back("kernel.warm_start_hit_rate", warm_rate);
}

/// Memoization effectiveness on a fixed revisit pattern (5 evaluations of
/// 2 distinct points through the factory-default cached stack).
void cache_counters(CounterRows& rows) {
  std::printf("[bench] cache counters (tia revisit pattern)...\n");
  const auto prob = circuits::make_tia_problem();
  prob.reset_eval_stats();
  const auto center = prob.center_params();
  auto neighbor = center;
  neighbor[0] += 1;
  const circuits::ParamVector* pts[] = {&center, &neighbor, &center, &center,
                                        &neighbor};
  for (const auto* p : pts) {
    if (!prob.evaluate(*p).ok()) {
      std::fprintf(stderr, "[bench] cache counter workload failed\n");
      std::exit(2);
    }
  }
  const eval::EvalStats stats = prob.eval_stats();
  rows.emplace_back("cache.simulations", stats.simulations);
  rows.emplace_back("cache.cache_hits", stats.cache_hits);
  rows.emplace_back("cache.cache_misses", stats.cache_misses);
  rows.emplace_back("cache.cache_hit_rate", stats.cache_hit_rate());
}

/// Trace-layer integration check: a traced evaluation loop must produce a
/// fixed record count. Only emitted when the recorder is compiled in —
/// snapshots from -DAUTOCKT_TRACE=OFF builds are not comparable against a
/// trace-on baseline (bench_diff treats the missing counters as a failure,
/// which is the correct loud answer).
void trace_counters(CounterRows& rows) {
  if (!trace::compiled_in()) {
    std::printf("[bench] trace counters skipped (compiled out)\n");
    return;
  }
  std::printf("[bench] trace counters (traced eval loop)...\n");
  const auto prob = circuits::make_tia_problem(raw_options());
  const auto center = prob.center_params();
  prob.evaluate(center).ok();  // warm the thread-local workspace first
  auto& rec = trace::recorder();
  rec.reset();
  rec.set_enabled(true);
  for (int i = 0; i < 4; ++i) prob.evaluate(center).ok();
  rec.set_enabled(false);
  const auto counts = rec.counts_by_name();
  long total = 0;
  for (const auto& [name, n] : counts) total += n;
  rows.emplace_back("trace.records_total", static_cast<double>(total));
  const auto it = counts.find(trace::names::kEvalSimulate);
  const double simulate_records =
      it == counts.end() ? 0.0 : static_cast<double>(it->second);
  rows.emplace_back("trace.eval_simulate_records", simulate_records);
  rec.reset();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  const std::string out_path = args.get("out", "BENCH_local.json");
  const std::string label = args.get("label", "local");
  const std::string sha = args.get("sha", "unknown");
  const double scale = args.get_double("reps-scale", 1.0);
  const auto reps = [&](int base) {
    const int r = static_cast<int>(static_cast<double>(base) * scale);
    return r < 1 ? 1 : r;
  };

  const double calibration = run_calibration();

  std::vector<BenchRow> benches;
  benches.push_back(
      two_stage_characterize("two_stage_characterize_cold", false, reps(12)));
  benches.push_back(
      two_stage_characterize("two_stage_characterize_warm", true, reps(12)));
  benches.push_back(tia_characterize_warm(reps(24)));
  // Per-design rows; compare against the *_sparse_warm rows above for the
  // batched-kernel speedup (the PR 9 acceptance bar is >= 2x at 16 lanes).
  benches.push_back(two_stage_characterize_batch(16, reps(4)));
  benches.push_back(tia_characterize_batch(16, reps(4)));
  benches.push_back(pex_eval_batch16(reps(4)));

  {
    const auto prob = circuits::make_tia_problem(raw_options());
    const auto center = prob.center_params();
    benches.push_back(time_bench("full_eval_tia", reps(24),
                                 [&](int) { prob.evaluate(center).ok(); }));
  }
  {
    const auto prob = circuits::make_tia_problem();  // factory default: cached
    const auto center = prob.center_params();
    prob.evaluate(center).ok();  // populate the memo entry once
    benches.push_back(time_bench("eval_cache_hit", reps(4000),
                                 [&](int) { prob.evaluate(center).ok(); }));
  }
  {
    auto problem = std::make_shared<const circuits::SizingProblem>(
        circuits::make_synthetic_problem(3, 21));
    env::EnvConfig env_config;
    env_config.horizon = 25;
    env::VectorSizingEnv venv(problem, env_config, 8);
    venv.reset_all();
    const std::vector<std::vector<int>> actions(
        8, std::vector<int>(static_cast<std::size_t>(venv.num_params()), 2));
    benches.push_back(
        time_bench("vector_env_tick", reps(400),
                   [&](int) { venv.step_all(actions); }));
  }
  {
    auto problem = std::make_shared<const circuits::SizingProblem>(
        circuits::make_synthetic_problem(3, 21));
    spec::UniformSampler sampler{spec::SpecSpace(*problem)};
    util::Rng rng(11);
    benches.push_back(time_bench("spec_sample_uniform", reps(20000),
                                 [&](int) { sampler.sample(rng); }));
  }
  benches.push_back(ppo_update_minibatch(reps(40)));
  benches.push_back(policy_forward16(reps(400)));
  benches.push_back(adam_step_policy(reps(2000)));

  CounterRows counters;
  training_counters(counters);
  kernel_counters_rows(counters);
  cache_counters(counters);
  trace_counters(counters);

  std::ostringstream json;
  json << "{\n  \"schema\": \"autockt-bench-v1\",\n  \"context\": {\n";
  json << "    \"label\": \"" << json_escape(label) << "\",\n";
  json << "    \"git_sha\": \"" << json_escape(sha) << "\",\n";
  const char* host = std::getenv("HOSTNAME");
  json << "    \"host\": \"" << json_escape(host ? host : "unknown")
       << "\",\n";
  json << "    \"cores\": " << std::thread::hardware_concurrency() << ",\n";
  json << "    \"compiler\": \"" << json_escape(__VERSION__) << "\",\n";
#ifdef NDEBUG
  json << "    \"build\": \"release\",\n";
#else
  json << "    \"build\": \"debug\",\n";
#endif
  json << "    \"trace_compiled\": "
       << (trace::compiled_in() ? "true" : "false") << "\n  },\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", calibration);
  json << "  \"calibration_ns_per_op\": " << buf << ",\n";
  json << "  \"benches\": {\n";
  for (std::size_t i = 0; i < benches.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.3f", benches[i].ns_per_op);
    json << "    \"" << benches[i].name << "\": {\"ns_per_op\": " << buf
         << ", \"reps\": " << benches[i].reps << "}"
         << (i + 1 < benches.size() ? "," : "") << "\n";
  }
  json << "  },\n  \"counters\": {\n";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.6f", counters[i].second);
    json << "    \"" << counters[i].first << "\": " << buf
         << (i + 1 < counters.size() ? "," : "") << "\n";
  }
  json << "  }\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "[bench] cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << json.str();
  std::printf("[bench] wrote %s (%zu benches, %zu counters)\n",
              out_path.c_str(), benches.size(), counters.size());
  return 0;
}
