// The four workloads. Each runs repeats of one fixed-seed unit of work
// until the run's time budget is spent; every repeat sets up from scratch
// (so set-up time is sampled too) and must reproduce the same outputs.
//
//   train_two_stage  PPO on two_stage_opamp: the update dominates.
//   train_tia        PPO on tia: simulation (the scalar transient) weighs
//                    far more than on two_stage.
//   deploy_pex       frozen ngm_ota agent on ngm_ota_pex: 2 worker
//                    processes, 3 PVT corners per point (folded serially in
//                    each worker), fresh disk cache.
//   replay_pex       the same deployment against a warm disk cache written
//                    by an untimed cold pass: zero simulations.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>

#include "attribution.hpp"
#include "autockt/autockt.hpp"
#include "autockt/experiments.hpp"
#include "bench.hpp"
#include "circuits/problems.hpp"
#include "proc_tree.hpp"

namespace e2e {

namespace {

using namespace autockt;
namespace fs = std::filesystem;

/// PPO iterations per training repeat; TIA's are slower, so it runs fewer
/// to fit three repeats in a 20 s run.
constexpr int kTwoStageIterations = 16;
constexpr int kTiaIterations = 12;
constexpr int kTrainStepsPerIteration = 1000;
/// Training set-up is sub-millisecond, so each repeat samples it this many
/// times (each a complete, independent set-up) to steady its median.
constexpr int kTrainSetups = 10;
constexpr std::size_t kDeployTargets = 512;
constexpr std::size_t kEvalWorkers = 2;
/// Repeats of the unit of work per run, whatever the time budget says
/// (per kind in a traced run, which alternates untraced and traced ones).
constexpr std::size_t kMinRepeats = 3;
constexpr std::size_t kMinTracedRepeats = 2;
constexpr std::size_t kMaxRepeats = 200;

/// Pinned outputs for the default seed (the correctness gate).
constexpr std::uint64_t kDefaultSeed = 1;
struct TrainPin {
  long env_steps;
  double train_goal_rate;
  double holdout_goal_rate;
};
struct DeployPin {
  int reached;
  long steps;
  std::uint64_t digest;
};

/// One repeat of a workload's unit of work.
struct Repeat {
  bool traced = false;
  std::vector<double> setup_s;  // one sample per complete set-up
  /// Wall seconds of each fixed piece of the timed phase (one per PPO
  /// iteration; one for a deployment). Pieces line up across repeats.
  std::vector<double> segments;
  long steps = 0;        // env steps of the timed phase
  eval::EvalStats eval;  // backend activity over the timed phase
  long setup_sims = 0;   // simulations spent in set-up
  long points = 0;       // evaluations requested (timed phase)
  long errors = 0;
  long transport_errors = 0;
  double cpu_s = 0.0;  // whole process tree, set-up + timed phase
  double worker_cpu_s = 0.0;
  double peak_rss_mb = 0.0;  // whole process tree, over this repeat
  // Traced repeats only.
  double busy_s = 0.0;
  double collect_s = 0.0, update_s = 0.0, holdout_s = 0.0;
  double batch_p50_us = 0.0, batch_tail_us = 0.0, batch_tail_q = 0.0;
  long batch_samples = 0;
  // Outputs checked by the gate.
  std::uint64_t digest = 0;
  double goal_rate = 0.0;  // holdout (train) / reached fraction (deploy)
  double train_goal_rate = 0.0;  // train only: last iteration's rate
  double steps_per_reached = 0.0;
  int reached = 0;

  double timed_s() const {
    double sum = 0.0;
    for (double s : segments) sum += s;
    return sum;
  }
};

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::shared_ptr<AttributedBackend> attach(circuits::SizingProblem* problem,
                                          bool timed) {
  auto attributed =
      std::make_shared<AttributedBackend>(problem->backend, timed);
  problem->backend = attributed;
  return attributed;
}

/// Start of a repeat: the process-tree CPU and memory baselines.
double begin_repeat() {
  reset_self_peak_rss();
  return self_cpu_s();
}

/// Counters of the timed phase read off the decorator, plus the process
/// tree, just before the problem (and its worker pool) is torn down.
/// Returns the live worker processes.
std::vector<ProcSample> finish_repeat(const AttributedBackend& attr,
                                      double cpu0, Repeat* r) {
  r->points = attr.points();
  r->errors = attr.errors();
  r->transport_errors = attr.transport_errors();
  r->peak_rss_mb = self_peak_rss_mb();
  std::vector<ProcSample> workers = live_descendants();
  for (const ProcSample& p : workers) {
    r->worker_cpu_s += p.cpu_s;
    r->peak_rss_mb += p.peak_rss_mb;
  }
  r->cpu_s = self_cpu_s() - cpu0 + r->worker_cpu_s;
  if (r->traced) {
    r->busy_s = attr.busy_s();
    const LatencyHistogram& h = attr.batch_latency();
    r->batch_samples = h.count();
    r->batch_tail_q =
        tail_quantile(static_cast<std::size_t>(r->batch_samples));
    r->batch_p50_us = 1e-3 * h.quantile_ns(0.5);
    r->batch_tail_us = 1e-3 * h.quantile_ns(r->batch_tail_q);
  }
  return workers;
}

// ---- training ---------------------------------------------------------------

Repeat train_once(const std::function<circuits::SizingProblem()>& make,
                  const core::AutoCktConfig& config, bool traced) {
  Repeat r;
  r.traced = traced;
  const double cpu0 = begin_repeat();
  std::shared_ptr<AttributedBackend> attr;
  std::shared_ptr<const circuits::SizingProblem> problem;
  for (int i = 0; i < kTrainSetups; ++i) {
    const auto t0 = Clock::now();
    circuits::SizingProblem built = make();
    attr = attach(&built, traced);
    problem =
        std::make_shared<const circuits::SizingProblem>(std::move(built));
    (void)problem->evaluate(problem->center_params());
    r.setup_s.push_back(seconds_since(t0));
  }
  r.setup_sims = problem->eval_stats().simulations;
  const eval::EvalStats before = problem->eval_stats();
  const long points0 = attr->points();
  const long errors0 = attr->errors();

  std::int64_t prev_ns = now_ns();
  attr->mark_idle(prev_ns);
  Fnv digest;
  long reached_episodes = 0;
  long prev_steps = 0;
  const auto on_iteration = [&](const rl::IterationStats& s) {
    const std::int64_t t = now_ns();
    const double wall = 1e-9 * static_cast<double>(t - prev_ns);
    r.segments.push_back(wall);
    if (traced) {
      // The update is the eval-free stretch after collection: the tail of
      // the iteration, or -- when a holdout probe followed it -- the
      // longest eval-free gap, with the probe after it.
      const AttributedBackend::Gap gap = attr->take_gap();
      double update = 1e-9 * static_cast<double>(t - gap.idle_since_ns);
      double holdout = 0.0;
      if (s.holdout_evaluated) {
        update = 1e-9 * static_cast<double>(gap.longest_ns);
        holdout = 1e-9 * static_cast<double>(t - gap.longest_end_ns);
      }
      r.update_s += update;
      r.holdout_s += holdout;
      r.collect_s += wall - update - holdout;
    }
    const long steps = s.cumulative_env_steps - prev_steps;
    prev_steps = s.cumulative_env_steps;
    const double episodes = static_cast<double>(steps) / s.mean_episode_len;
    reached_episodes += std::lround(s.goal_rate * episodes);
    digest.add(static_cast<std::uint64_t>(s.cumulative_env_steps));
    digest.add(s.goal_rate);
    digest.add(s.mean_episode_reward);
    digest.add(s.holdout_goal_rate);
    r.train_goal_rate = s.goal_rate;
    prev_ns = t;
  };
  const core::TrainOutcome outcome =
      core::train_agent(problem, config, on_iteration);

  r.eval = problem->eval_stats().since(before);
  r.steps = outcome.history.total_env_steps;
  r.goal_rate = outcome.history.final_holdout_goal_rate;
  r.steps_per_reached = ratio(static_cast<double>(r.steps),
                              static_cast<double>(reached_episodes));
  r.digest = digest.value();
  (void)finish_repeat(*attr, cpu0, &r);
  r.points -= points0;
  r.errors -= errors0;
  return r;
}

core::AutoCktConfig train_config(std::uint64_t seed, int iterations) {
  core::AutoCktConfig config;
  config.seed = seed;
  config.ppo.max_iterations = iterations;
  config.ppo.steps_per_iteration = kTrainStepsPerIteration;
  // Early stop off: every repeat runs the same fixed number of iterations.
  config.ppo.target_mean_reward = std::numeric_limits<double>::infinity();
  config.ppo.target_goal_rate = 2.0;
  return config;
}

// ---- deployment -------------------------------------------------------------

struct DeployInputs {
  spec::SpecSuite suite;
  env::EnvConfig env_config;
  std::string agent_path;
};

/// ngm_ota_pex's parameter and spec tables, without a backend stack (no
/// worker pool is forked just to draw the deployment suite).
circuits::SizingProblem spec_definitions() {
  circuits::ProblemOptions options;
  options.cache = false;
  options.parallel_corners = false;
  options.parallel_batch = false;
  return circuits::make_ngm_pex_problem(options);
}

rl::PpoAgent load_agent(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open agent weights " + path);
  return rl::PpoAgent::load(in);
}

Repeat deploy_once(const DeployInputs& in, const std::string& cache_dir,
                   bool traced) {
  Repeat r;
  r.traced = traced;
  const double cpu0 = begin_repeat();
  const auto t0 = Clock::now();
  circuits::ProblemOptions options;
  options.cache_path = cache_dir;
  options.eval_workers = kEvalWorkers;
  // Each worker folds its points' corners serially: a corner pool per
  // worker would run 2 x nproc simulation threads, and the oversubscribed
  // rate then tracks the host's load more than the code.
  options.parallel_corners = false;
  circuits::SizingProblem built = circuits::make_ngm_pex_problem(options);
  auto attr = attach(&built, traced);
  auto problem =
      std::make_shared<const circuits::SizingProblem>(std::move(built));
  const rl::PpoAgent agent = load_agent(in.agent_path);
  (void)problem->evaluate(problem->center_params());
  r.setup_sims = problem->eval_stats().simulations;
  const eval::EvalStats before = problem->eval_stats();
  const long points0 = attr->points();
  const long errors0 = attr->errors();
  const auto t1 = Clock::now();
  r.setup_s = {seconds_between(t0, t1)};
  attr->mark_idle(now_ns());

  const core::DeployStats stats =
      core::deploy_agent(agent, problem, in.suite, in.env_config);

  r.segments = {seconds_since(t1)};
  r.collect_s = r.segments.front();  // the whole phase is policy rollout
  r.eval = problem->eval_stats().since(before);
  r.steps = stats.total_sim_steps();
  r.reached = stats.reached_count();
  r.goal_rate = stats.reach_fraction();
  r.steps_per_reached = stats.avg_steps_reached();
  Fnv digest;
  for (const core::DeployRecord& rec : stats.records) {
    for (double v : rec.target) digest.add(v);
    for (double v : rec.final_specs) digest.add(v);
    for (int p : rec.final_params) digest.add(static_cast<std::uint64_t>(p));
    digest.add(static_cast<std::uint64_t>(rec.steps));
    digest.add(static_cast<std::uint64_t>(rec.reached));
  }
  r.digest = digest.value();
  const std::vector<ProcSample> workers = finish_repeat(*attr, cpu0, &r);
  r.points -= points0;
  r.errors -= errors0;
  attr.reset();
  problem.reset();  // closes the worker pool
  wait_for_exit(workers);
  return r;
}

// ---- the run ----------------------------------------------------------------

/// Run repeats while the next one is expected to end within the time
/// budget (and at least the minimum). A traced run alternates untraced and
/// traced repeats so trace.overhead compares like with like.
std::vector<Repeat> repeat_for(const Options& options,
                               const std::function<Repeat(bool)>& once) {
  std::vector<Repeat> reps;
  std::vector<double> took;
  const auto t0 = Clock::now();
  const std::size_t min_reps =
      options.trace ? 2 * kMinTracedRepeats : kMinRepeats;
  while (reps.size() < kMaxRepeats &&
         (reps.size() < min_reps ||
          seconds_since(t0) + median(took) <= options.seconds)) {
    const auto t = Clock::now();
    reps.push_back(once(options.trace && reps.size() % 2 == 1));
    took.push_back(seconds_since(t));
  }
  return reps;
}

/// Steps per second of the timed phase: each segment's median over the
/// repeats, summed, against the (identical) step count of one repeat.
double steps_per_s(const std::vector<const Repeat*>& reps) {
  double total = 0.0;
  for (std::size_t i = 0; i < reps.front()->segments.size(); ++i) {
    std::vector<double> seg;
    for (const Repeat* r : reps) seg.push_back(r->segments[i]);
    total += median(seg);
  }
  return static_cast<double>(reps.front()->steps) / total;
}

std::vector<const Repeat*> select(const std::vector<Repeat>& reps,
                                  bool traced) {
  std::vector<const Repeat*> out;
  for (const Repeat& r : reps) {
    if (r.traced == traced) out.push_back(&r);
  }
  return out;
}

double median_of(const std::vector<const Repeat*>& reps,
                 const std::function<double(const Repeat&)>& field) {
  std::vector<double> v;
  for (const Repeat* r : reps) v.push_back(field(*r));
  return median(v);
}

void gate_repeats(const std::vector<Repeat>& reps, Report* report) {
  for (const Repeat& r : reps) {
    report->check(
        r.digest == reps.front().digest && r.steps == reps.front().steps,
        "outputs differ between repeats of the same seed");
    report->check(r.transport_errors == 0, "worker transport errors");
  }
}

void report_per_layer(const std::vector<Repeat>& reps, double untraced_rate,
                      Report* out) {
  const std::vector<const Repeat*> traced = select(reps, true);
  const auto med = [&](const std::function<double(const Repeat&)>& f) {
    return median_of(traced, f);
  };
  const auto share = [&](double Repeat::*field) {
    return med(
        [field](const Repeat& r) { return ratio(r.*field, r.timed_s()); });
  };
  const auto count = [&](long eval::EvalStats::*field) {
    return med([field](const Repeat& r) {
      return static_cast<double>(r.eval.*field);
    });
  };
  const auto per_sim = [&](long eval::EvalStats::*field) {
    return med([field](const Repeat& r) {
      return ratio(static_cast<double>(r.eval.*field),
                   static_cast<double>(r.eval.simulations));
    });
  };
  const Repeat& first = reps.front();
  out->add("rl.goal_rate", first.goal_rate, "frac");
  out->add("rl.steps_per_reached", first.steps_per_reached, "steps");
  out->add("rl.collect_share", share(&Repeat::collect_s), "frac");
  out->add("rl.update_share", share(&Repeat::update_s), "frac");
  out->add("rl.holdout_share", share(&Repeat::holdout_s), "frac");
  out->add("eval.busy_s", med([](const Repeat& r) { return r.busy_s; }), "s");
  out->add("eval.sim_share", med([](const Repeat& r) {
             return ratio(r.eval.sim_seconds, r.timed_s());
           }),
           "s/s");
  out->add("eval.batch_p50_us",
           med([](const Repeat& r) { return r.batch_p50_us; }), "us");
  out->add("eval.batch_tail_us",
           med([](const Repeat& r) { return r.batch_tail_us; }), "us");
  out->add("eval.batch_tail_q",
           med([](const Repeat& r) { return r.batch_tail_q; }), "q");
  out->add("eval.batch_samples", med([](const Repeat& r) {
             return static_cast<double>(r.batch_samples);
           }),
           "count");
  out->add("eval.points", med([](const Repeat& r) {
             return static_cast<double>(r.points);
           }),
           "count");
  out->add("eval.sims", count(&eval::EvalStats::simulations), "count");
  out->add("eval.cache_hit_rate",
           med([](const Repeat& r) { return r.eval.cache_hit_rate(); }),
           "frac");
  out->add("eval.errors", med([](const Repeat& r) {
             return static_cast<double>(r.errors);
           }),
           "count");
  out->add("eval.worker_dispatches",
           count(&eval::EvalStats::worker_dispatches), "count");
  out->add("eval.worker_retries", count(&eval::EvalStats::worker_retries),
           "count");
  out->add("eval.worker_restarts", count(&eval::EvalStats::worker_restarts),
           "count");
  out->add("eval.disk_appends", count(&eval::EvalStats::disk_appends),
           "count");
  out->add("eval.disk_hits", count(&eval::EvalStats::disk_hits), "count");
  out->add("spice.newton_per_sim",
           per_sim(&eval::EvalStats::newton_iterations), "count");
  out->add("spice.warm_start_hit_rate",
           med([](const Repeat& r) { return r.eval.warm_start_hit_rate(); }),
           "frac");
  out->add("linalg.factors_per_sim",
           per_sim(&eval::EvalStats::numeric_factorizations), "count");
  out->add("linalg.batch_refactors_per_sim",
           per_sim(&eval::EvalStats::batch_refactorizations), "count");
  out->add("linalg.dense_fallbacks", count(&eval::EvalStats::dense_fallbacks),
           "count");
  out->add("proc.cpu_s", med([](const Repeat& r) { return r.cpu_s; }), "s");
  out->add("proc.worker_cpu_frac", med([](const Repeat& r) {
             return ratio(r.worker_cpu_s, r.cpu_s);
           }),
           "frac");
  out->add("trace.overhead", steps_per_s(traced) / untraced_rate, "ratio");
}

void report_metrics(const Options& options, const std::vector<Repeat>& reps,
                    Report* out) {
  const std::vector<const Repeat*> plain = select(reps, false);
  const Repeat& first = reps.front();
  long points = 0;
  long errors = 0;
  for (const Repeat& r : reps) {
    points += r.points;
    errors += r.errors;
    out->failed += r.transport_errors;
  }
  out->attempted = points;
  std::vector<double> setup;
  std::vector<double> timed;
  for (const Repeat* r : plain) {
    setup.insert(setup.end(), r->setup_s.begin(), r->setup_s.end());
    timed.push_back(r->timed_s());
  }
  const double failed_frac =
      ratio(static_cast<double>(errors), static_cast<double>(points));
  out->notes.push_back("setup: " + describe_timing(setup, 1e3, "ms"));
  out->notes.push_back("timed phase: " + describe_timing(timed, 1.0, "s") +
                       ", " + std::to_string(first.steps) +
                       " env steps each");
  char outcome[200];
  std::snprintf(outcome, sizeof outcome,
                "outcome: goal_rate %.4g, steps_per_reached %.4g, "
                "sim_count %ld, failed_frac %.4g",
                first.goal_rate, first.steps_per_reached,
                first.eval.simulations, failed_frac);
  out->notes.push_back(outcome);

  const double untraced_rate = steps_per_s(plain);
  if (options.trace) {
    report_per_layer(reps, untraced_rate, out);
    return;
  }
  out->add("setup_s", median(setup), "s");
  out->add("env_steps_per_s", untraced_rate, "1/s");
  out->add("peak_rss_mb",
           median_of(plain, [](const Repeat& r) { return r.peak_rss_mb; }),
           "MB");
  out->add("cache_hit_rate", median_of(plain, [](const Repeat& r) {
             return r.eval.cache_hit_rate();
           }),
           "frac");
  out->add("ok_frac", 1.0 - failed_frac, "frac");
}

void run_training(const Options& options, Report* report,
                  std::vector<Repeat>* reps) {
  const bool tia = options.workload == "train_tia";
  const core::AutoCktConfig config = train_config(
      options.seed, tia ? kTiaIterations : kTwoStageIterations);
  const auto make = [tia] {
    return tia ? circuits::make_tia_problem()
               : circuits::make_two_stage_problem();
  };
  *reps = repeat_for(options, [&](bool traced) {
    return train_once(make, config, traced);
  });
  if (options.seed != kDefaultSeed) return;
  // Goal rates are ratios of whole counts, pinned as such.
  const TrainPin pin = tia ? TrainPin{13620, 7.0 / 9.0, 11.0 / 20.0}
                           : TrainPin{18368, 20.0 / 43.0, 5.0 / 20.0};
  const Repeat& r = reps->front();
  report->check(r.steps == pin.env_steps,
                "env steps " + std::to_string(r.steps) +
                    " differ from the pinned value");
  report->check(r.train_goal_rate == pin.train_goal_rate,
                "train goal rate " + std::to_string(r.train_goal_rate) +
                    " differs from the pinned value");
  report->check(r.goal_rate == pin.holdout_goal_rate,
                "holdout goal rate " + std::to_string(r.goal_rate) +
                    " differs from the pinned value");
}

void run_deployment(const Options& options, Report* report,
                    std::vector<Repeat>* reps) {
  DeployInputs in;
  in.agent_path = options.agent_path;
  in.suite =
      core::make_deploy_suite(spec_definitions(), kDeployTargets, options.seed);
  const ScratchDir base(fs::path(options.workdir) /
                        (options.workload + "-" + std::to_string(getpid())));
  if (options.workload == "replay_pex") {
    const std::string warm = (base.path() / "warm").string();
    const Repeat cold = deploy_once(in, warm, false);  // untimed prep pass
    *reps = repeat_for(options, [&](bool traced) {
      return deploy_once(in, warm, traced);
    });
    for (const Repeat& r : *reps) {
      report->check(r.setup_sims == 0 && r.eval.simulations == 0,
                    "warm replay ran simulations");
      report->check(r.digest == cold.digest,
                    "replayed records differ from the cold pass");
      report->check(r.eval.disk_hits > 0, "warm replay served no disk hits");
    }
  } else {
    int n = 0;
    *reps = repeat_for(options, [&](bool traced) {
      const fs::path dir = base.path() / ("cold-" + std::to_string(n++));
      Repeat r = deploy_once(in, dir.string(), traced);
      fs::remove_all(dir);
      return r;
    });
    for (const Repeat& r : *reps) {
      report->check(r.eval.disk_appends > 0,
                    "cold deployment appended nothing to disk");
    }
  }
  if (options.seed != kDefaultSeed) return;
  // Both deployment workloads run the same suite to the same records.
  const DeployPin pin{316, 21952, 16392031643619157075ULL};
  const Repeat& r = reps->front();
  report->check(r.reached == pin.reached,
                "reached count " + std::to_string(r.reached) +
                    " differs from the pinned value");
  report->check(r.steps == pin.steps, "deploy steps " +
                                          std::to_string(r.steps) +
                                          " differ from the pinned value");
  report->check(r.digest == pin.digest,
                "record digest " + std::to_string(r.digest) +
                    " differs from the pinned value");
}

}  // namespace

Report run_workload(const Options& options) {
  Report report;
  std::vector<Repeat> reps;
  const std::string& w = options.workload;
  if (w == "train_two_stage" || w == "train_tia") {
    run_training(options, &report, &reps);
  } else if (w == "deploy_pex" || w == "replay_pex") {
    run_deployment(options, &report, &reps);
  } else {
    throw std::invalid_argument("unknown workload '" + w + "'");
  }
  gate_repeats(reps, &report);
  report_metrics(options, reps, &report);
  if (options.trace) run_probes(options.seed, options.workdir, &report);
  return report;
}

}  // namespace e2e
