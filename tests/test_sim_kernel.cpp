// Sparse simulation kernel: dense-vs-sparse parity across every analysis on
// all four benchmark circuits (TIA, two-stage op-amp, negative-gm OTA, and
// its PEX variant), warm-start determinism against the cold-start path, and
// the kernel counters surfaced through EvalStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "circuits/ngm_ota.hpp"
#include "circuits/problems.hpp"
#include "circuits/tia.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "env/sizing_env.hpp"
#include "env/vector_env.hpp"
#include "pex/parasitics.hpp"
#include "spice/ac.hpp"
#include "spice/dc.hpp"
#include "spice/noise.hpp"
#include "spice/transient.hpp"
#include "spice/workspace.hpp"
#include "util/rng.hpp"

using namespace autockt;
using spice::SimKernel;

namespace {

constexpr double kParityRelTol = 1e-9;

/// Normwise relative difference: max |a-b| over max magnitude. Guards the
/// all-zero case by returning the absolute difference.
double rel_diff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double scale = 0.0, diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    scale = std::max({scale, std::fabs(a[i]), std::fabs(b[i])});
    diff = std::max(diff, std::fabs(a[i] - b[i]));
  }
  return scale == 0.0 ? diff : diff / scale;
}

double rel_diff_ac(const std::vector<spice::AcPoint>& a,
                   const std::vector<spice::AcPoint>& b) {
  EXPECT_EQ(a.size(), b.size());
  double scale = 0.0, diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].freq, b[i].freq);
    scale = std::max({scale, std::abs(a[i].value), std::abs(b[i].value)});
    diff = std::max(diff, std::abs(a[i].value - b[i].value));
  }
  return scale == 0.0 ? diff : diff / scale;
}

/// One benchmark circuit plus the probe and DC guess its simulate_* flow
/// uses. The builder is re-invoked per kernel so each run owns its circuit.
struct CircuitCase {
  std::string name;
  std::function<spice::Circuit()> build;
  std::function<spice::DcOptions(const spice::Circuit&)> dc_options;
  std::string probe;  // node name for AC/noise/transient probing
};

pex::ParasiticModel test_parasitics() {
  pex::ParasiticModel pm;
  pm.cap_fixed = 15e-15;
  pm.cap_per_width = 7.0e-9;
  pm.variation = 0.3;
  pm.salt = 0xba6;
  return pm;
}

std::vector<CircuitCase> benchmark_circuits() {
  std::vector<CircuitCase> cases;

  cases.push_back(
      {"tia",
       [] { return circuits::build_tia({}, spice::TechCard::ptm45()); },
       [](const spice::Circuit& ckt) {
         const auto card = spice::TechCard::ptm45();
         spice::DcOptions opt;
         opt.initial_node_v.assign(ckt.num_nodes(), 0.0);
         opt.initial_node_v[ckt.node("vdd")] = card.vdd;
         opt.initial_node_v[ckt.node("in")] = card.vdd / 2.0;
         opt.initial_node_v[ckt.node("out")] = card.vdd / 2.0;
         return opt;
       },
       "out"});

  auto two_stage_dc = [](const spice::Circuit& ckt) {
    const auto card = spice::TechCard::ptm45();
    const double vcm = 0.55 * card.vdd;
    spice::DcOptions opt;
    opt.initial_node_v.assign(ckt.num_nodes(), 0.0);
    opt.initial_node_v[ckt.node("vdd")] = card.vdd;
    opt.initial_node_v[ckt.node("inp")] = vcm;
    opt.initial_node_v[ckt.node("inn")] = vcm;
    opt.initial_node_v[ckt.node("tail")] = 0.2 * card.vdd;
    opt.initial_node_v[ckt.node("d1")] = 0.65 * card.vdd;
    opt.initial_node_v[ckt.node("out1")] = 0.65 * card.vdd;
    opt.initial_node_v[ckt.node("out")] = vcm;
    opt.initial_node_v[ckt.node("bias")] = 0.4 * card.vdd;
    return opt;
  };
  cases.push_back({"two_stage",
                   [] {
                     return circuits::build_two_stage(
                         {}, spice::TechCard::ptm45());
                   },
                   two_stage_dc, "out"});

  auto ngm_dc = [](const spice::Circuit& ckt) {
    const auto card = spice::TechCard::finfet16();
    const double vcm = 0.6 * card.vdd;
    spice::DcOptions opt;
    opt.initial_node_v.assign(ckt.num_nodes(), 0.0);
    opt.initial_node_v[ckt.node("vdd")] = card.vdd;
    opt.initial_node_v[ckt.node("inp")] = vcm;
    opt.initial_node_v[ckt.node("inn")] = vcm;
    opt.initial_node_v[ckt.node("tail")] = 0.2 * card.vdd;
    opt.initial_node_v[ckt.node("x1")] = 0.6 * card.vdd;
    opt.initial_node_v[ckt.node("x2")] = 0.6 * card.vdd;
    opt.initial_node_v[ckt.node("out")] = vcm;
    opt.initial_node_v[ckt.node("bias")] = 0.45 * card.vdd;
    return opt;
  };
  cases.push_back({"ngm_ota",
                   [] {
                     return circuits::build_ngm_ota(
                         {}, spice::TechCard::finfet16());
                   },
                   ngm_dc, "out"});
  cases.push_back({"ngm_ota_pex",
                   [] {
                     static const pex::ParasiticModel pm = test_parasitics();
                     circuits::NgmBuildOptions build;
                     build.parasitics = &pm;
                     return circuits::build_ngm_ota(
                         {}, spice::TechCard::finfet16(), build);
                   },
                   ngm_dc, "out"});
  return cases;
}

}  // namespace

// ---- dense-vs-sparse parity -------------------------------------------------

TEST(SimKernelParity, DcOperatingPoint) {
  for (const CircuitCase& c : benchmark_circuits()) {
    SCOPED_TRACE(c.name);
    spice::Circuit ckt = c.build();
    spice::DcOptions dense_opt = c.dc_options(ckt);
    dense_opt.kernel = SimKernel::Dense;
    spice::DcOptions sparse_opt = c.dc_options(ckt);
    sparse_opt.kernel = SimKernel::Sparse;

    auto dense = spice::solve_op(ckt, dense_opt);
    auto sparse = spice::solve_op(ckt, sparse_opt);
    ASSERT_TRUE(dense.ok());
    ASSERT_TRUE(sparse.ok());
    EXPECT_LT(rel_diff(dense->node_v, sparse->node_v), kParityRelTol);
    EXPECT_LT(rel_diff(dense->branch_i, sparse->branch_i), kParityRelTol);
  }
}

TEST(SimKernelParity, AcSweep) {
  for (const CircuitCase& c : benchmark_circuits()) {
    SCOPED_TRACE(c.name);
    spice::Circuit ckt = c.build();
    auto op = spice::solve_op(ckt, c.dc_options(ckt));
    ASSERT_TRUE(op.ok());

    spice::AcOptions dense_opt;
    dense_opt.kernel = SimKernel::Dense;
    spice::AcOptions sparse_opt;
    sparse_opt.kernel = SimKernel::Sparse;
    const spice::NodeId probe = ckt.node(c.probe);
    auto dense = spice::ac_sweep(ckt, *op, probe, spice::kGround, dense_opt);
    auto sparse = spice::ac_sweep(ckt, *op, probe, spice::kGround, sparse_opt);
    ASSERT_TRUE(dense.ok());
    ASSERT_TRUE(sparse.ok());
    EXPECT_LT(rel_diff_ac(*dense, *sparse), kParityRelTol);
  }
}

TEST(SimKernelParity, NoiseSweep) {
  for (const CircuitCase& c : benchmark_circuits()) {
    SCOPED_TRACE(c.name);
    spice::Circuit ckt = c.build();
    auto op = spice::solve_op(ckt, c.dc_options(ckt));
    ASSERT_TRUE(op.ok());

    spice::NoiseOptions dense_opt;
    dense_opt.kernel = SimKernel::Dense;
    spice::NoiseOptions sparse_opt;
    sparse_opt.kernel = SimKernel::Sparse;
    const spice::NodeId probe = ckt.node(c.probe);
    auto dense =
        spice::noise_sweep(ckt, *op, probe, spice::kGround, dense_opt);
    auto sparse =
        spice::noise_sweep(ckt, *op, probe, spice::kGround, sparse_opt);
    ASSERT_TRUE(dense.ok());
    ASSERT_TRUE(sparse.ok());
    EXPECT_LT(rel_diff(dense->out_psd, sparse->out_psd), kParityRelTol);
    const double scale = std::max(
        {dense->total_output_v2, sparse->total_output_v2, 1e-300});
    EXPECT_LT(std::fabs(dense->total_output_v2 - sparse->total_output_v2) /
                  scale,
              kParityRelTol);
  }
}

TEST(SimKernelParity, Transient) {
  for (const CircuitCase& c : benchmark_circuits()) {
    SCOPED_TRACE(c.name);
    spice::Circuit ckt = c.build();
    auto op = spice::solve_op(ckt, c.dc_options(ckt));
    ASSERT_TRUE(op.ok());

    spice::TranOptions dense_opt;
    dense_opt.t_stop = 1e-10;
    dense_opt.dt = 2e-12;  // 50 trapezoidal steps
    spice::TranOptions sparse_opt = dense_opt;
    dense_opt.kernel = SimKernel::Dense;
    sparse_opt.kernel = SimKernel::Sparse;
    const std::vector<spice::NodeId> probes = {ckt.node(c.probe)};
    auto dense = spice::transient(ckt, *op, probes, dense_opt);
    auto sparse = spice::transient(ckt, *op, probes, sparse_opt);
    ASSERT_TRUE(dense.ok());
    ASSERT_TRUE(sparse.ok());
    ASSERT_EQ(dense->time.size(), sparse->time.size());
    EXPECT_LT(rel_diff(dense->waveforms[0], sparse->waveforms[0]),
              kParityRelTol);
  }
}

TEST(SimKernelParity, TransientWithStepStimulus) {
  // A genuinely dynamic waveform (the TIA settling measurement's shape):
  // photodiode current step into the inverter TIA, 400 steps.
  auto build_step = [] {
    using namespace spice;
    const auto card = TechCard::ptm45();
    const circuits::TiaParams params;
    Circuit ckt;
    const NodeId vdd = ckt.add_node("vdd");
    const NodeId in = ckt.add_node("in");
    const NodeId out = ckt.add_node("out");
    ckt.add<VoltageSource>("vsupply", vdd, kGround,
                           Waveform::constant(card.vdd));
    ckt.add<CurrentSource>("iin", kGround, in,
                           Waveform::step(0.0, 5e-6, 1e-10, 5e-13));
    ckt.add<Capacitor>("cpd", in, kGround, 50e-15);
    const double l = 2.0 * card.l_min;
    ckt.add<Mosfet>("mn", out, in, kGround, kGround, MosType::Nmos,
                    MosGeom{params.wn, l, params.mn}, card);
    ckt.add<Mosfet>("mp", out, in, vdd, vdd, MosType::Pmos,
                    MosGeom{params.wp, l, params.mp}, card);
    ckt.add<Resistor>("rf", in, out, params.feedback_resistance());
    ckt.add<Capacitor>("cl", out, kGround, 15e-15);
    return ckt;
  };
  spice::Circuit ckt = build_step();
  const auto card = spice::TechCard::ptm45();
  spice::DcOptions dc;
  dc.initial_node_v.assign(ckt.num_nodes(), 0.0);
  dc.initial_node_v[ckt.node("vdd")] = card.vdd;
  dc.initial_node_v[ckt.node("in")] = card.vdd / 2.0;
  dc.initial_node_v[ckt.node("out")] = card.vdd / 2.0;
  auto op = spice::solve_op(ckt, dc);
  ASSERT_TRUE(op.ok());

  spice::TranOptions dense_opt;
  dense_opt.t_stop = 1e-9;
  dense_opt.dt = 2.5e-12;  // 400 steps across the edge and settling tail
  spice::TranOptions sparse_opt = dense_opt;
  dense_opt.kernel = SimKernel::Dense;
  sparse_opt.kernel = SimKernel::Sparse;
  const std::vector<spice::NodeId> probes = {ckt.node("out")};
  auto dense = spice::transient(ckt, *op, probes, dense_opt);
  auto sparse = spice::transient(ckt, *op, probes, sparse_opt);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(sparse.ok());
  // The waveform must actually move (step response), and the kernels agree.
  const auto& w = dense->waveforms[0];
  EXPECT_GT(std::fabs(w.front() - w.back()), 1e-3);
  EXPECT_LT(rel_diff(dense->waveforms[0], sparse->waveforms[0]),
            kParityRelTol);
}

TEST(SimKernelParity, WorkspaceReuseAcrossGridPoints) {
  // A reused workspace (one symbolic factorization) must produce the same
  // results as a fresh workspace per circuit.
  const auto card = spice::TechCard::ptm45();
  spice::SimWorkspace* shared = nullptr;
  for (int i = 0; i < 6; ++i) {
    circuits::TwoStageParams p;
    p.w12 = (5.0 + 2.5 * i) * 1e-6;
    spice::Circuit ckt = circuits::build_two_stage(p, card);
    if (shared == nullptr) {
      shared = &spice::workspace_for(ckt, "test_reuse_two_stage");
    }
    CircuitCase two_stage = benchmark_circuits()[1];
    spice::DcOptions with_ws = two_stage.dc_options(ckt);
    with_ws.workspace = shared;
    spice::DcOptions fresh = two_stage.dc_options(ckt);
    auto a = spice::solve_op(ckt, with_ws);
    auto b = spice::solve_op(ckt, fresh);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // Same kernel, same symbolic ordering (it is purely structural): the
    // reused workspace is bit-identical to a fresh one.
    EXPECT_EQ(a->node_v, b->node_v);
    EXPECT_EQ(a->branch_i, b->branch_i);
  }
}

// ---- warm-start determinism -------------------------------------------------

namespace {

circuits::ProblemOptions raw_options() {
  circuits::ProblemOptions options;
  options.cache = false;
  return options;
}

/// Scripted random-walk actions shared by the warm/cold runs.
std::vector<std::vector<int>> scripted_actions(int steps, int params,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<int>> actions(static_cast<std::size_t>(steps));
  for (auto& a : actions) {
    a.resize(static_cast<std::size_t>(params));
    for (auto& v : a) v = static_cast<int>(rng.bounded(3));
  }
  return actions;
}

}  // namespace

TEST(WarmStart, TrajectoriesMatchColdStartedOnes) {
  auto prob = std::make_shared<const circuits::SizingProblem>(
      circuits::make_two_stage_problem(raw_options()));
  env::EnvConfig warm_cfg;
  warm_cfg.warm_start = true;
  env::EnvConfig cold_cfg;
  cold_cfg.warm_start = false;

  env::SizingEnv warm_env(prob, warm_cfg);
  env::SizingEnv cold_env(prob, cold_cfg);
  warm_env.reset();
  cold_env.reset();
  EXPECT_EQ(warm_env.params(), cold_env.params());

  const auto actions =
      scripted_actions(12, warm_env.num_params(), /*seed=*/97);
  for (const auto& action : actions) {
    auto ws = warm_env.step(action);
    auto cs = cold_env.step(action);
    // The visited grid trajectory is identical...
    EXPECT_EQ(warm_env.params(), cold_env.params());
    // ...and the measured specs agree to the parity tolerance (the warm
    // Newton converges to the same fixed point as the cold chain).
    EXPECT_LT(rel_diff(warm_env.cur_specs(), cold_env.cur_specs()),
              kParityRelTol);
    EXPECT_EQ(ws.goal_met, cs.goal_met);
    EXPECT_EQ(ws.done, cs.done);
    EXPECT_NEAR(ws.reward, cs.reward, 1e-9 * (1.0 + std::fabs(cs.reward)));
    if (ws.done) break;
  }
}

TEST(WarmStart, RerunIsBitwiseReproducible) {
  auto prob = std::make_shared<const circuits::SizingProblem>(
      circuits::make_two_stage_problem(raw_options()));
  env::EnvConfig cfg;
  cfg.warm_start = true;

  auto run = [&] {
    env::SizingEnv env(prob, cfg);
    env.reset();
    std::vector<circuits::SpecVector> specs;
    for (const auto& action :
         scripted_actions(10, env.num_params(), /*seed=*/53)) {
      env.step(action);
      specs.push_back(env.cur_specs());
    }
    return specs;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(WarmStart, VectorEnvLanesMatchSerialEnvsWithHints) {
  // The PR-2 lockstep contract must survive hint threading: a warm-started
  // vector env is bitwise-identical to warm-started serial envs.
  auto make_prob = [] {
    return std::make_shared<const circuits::SizingProblem>(
        circuits::make_two_stage_problem(raw_options()));
  };
  env::EnvConfig cfg;
  cfg.warm_start = true;
  const int kLanes = 3, kSteps = 4;

  auto prob_v = make_prob();
  env::VectorSizingEnv venv(prob_v, cfg, kLanes);
  venv.reset_all();

  auto prob_s = make_prob();
  std::vector<env::SizingEnv> serial;
  for (int i = 0; i < kLanes; ++i) serial.emplace_back(prob_s, cfg);
  for (auto& e : serial) e.reset();

  util::Rng rng(11);
  for (int t = 0; t < kSteps; ++t) {
    std::vector<std::vector<int>> actions(static_cast<std::size_t>(kLanes));
    for (auto& a : actions) {
      a.resize(static_cast<std::size_t>(serial[0].num_params()));
      for (auto& v : a) v = static_cast<int>(rng.bounded(3));
    }
    auto steps = venv.step_all(actions);
    for (int i = 0; i < kLanes; ++i) {
      auto sr = serial[static_cast<std::size_t>(i)].step(
          actions[static_cast<std::size_t>(i)]);
      EXPECT_EQ(venv.lane(i).cur_specs(),
                serial[static_cast<std::size_t>(i)].cur_specs());
      EXPECT_EQ(steps[static_cast<std::size_t>(i)].reward, sr.reward);
    }
  }
}

// ---- kernel counters through EvalStats --------------------------------------

TEST(KernelStats, SurfaceThroughEvalStats) {
  auto prob = circuits::make_two_stage_problem(raw_options());
  prob.reset_eval_stats();
  eval::SimHint hint;
  auto center = prob.center_params();
  for (int i = 0; i < 4; ++i) {
    center[0] = 40 + i;
    ASSERT_TRUE(prob.evaluate(center, &hint).ok());
  }
  const eval::EvalStats stats = prob.eval_stats();
  EXPECT_GT(stats.newton_iterations, 0);
  EXPECT_GT(stats.numeric_factorizations, 0);
  // Symbolic work amortizes: far fewer symbolic than numeric runs.
  EXPECT_LT(stats.symbolic_factorizations, stats.numeric_factorizations);
  // Steps 2..4 are one grid move apart and warm-start from the hint.
  EXPECT_EQ(stats.warm_start_attempts, 3);
  EXPECT_EQ(stats.warm_start_hits, 3);
  EXPECT_NEAR(stats.warm_start_hit_rate(), 1.0, 1e-12);
  // The one-line summary carries the kernel columns.
  EXPECT_NE(stats.summary().find("warm_start_attempts=3"), std::string::npos);
  EXPECT_NE(stats.summary().find("warm_start_hits=3"), std::string::npos);

  prob.reset_eval_stats();
  const eval::EvalStats cleared = prob.eval_stats();
  EXPECT_EQ(cleared.newton_iterations, 0);
  EXPECT_EQ(cleared.warm_start_attempts, 0);
}

TEST(KernelStats, EnvInvalidatesHintsOnReset) {
  auto prob = std::make_shared<const circuits::SizingProblem>(
      circuits::make_two_stage_problem(raw_options()));
  env::EnvConfig cfg;
  cfg.warm_start = true;
  env::SizingEnv env(prob, cfg);
  prob->reset_eval_stats();
  env.reset();  // cold: no warm attempt
  const auto after_reset = prob->eval_stats();
  EXPECT_EQ(after_reset.warm_start_attempts, 0);

  std::vector<int> hold(static_cast<std::size_t>(env.num_params()), 2);
  env.step(hold);  // warm from the reset evaluation
  EXPECT_EQ(prob->eval_stats().warm_start_attempts, 1);

  env.reset();  // episode boundary invalidates the hint again
  env.step(hold);
  const auto final_stats = prob->eval_stats();
  EXPECT_EQ(final_stats.warm_start_attempts, 2);
}
