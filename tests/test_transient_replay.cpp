// The transient's period-2 replay: once an accepted state equals the state
// two steps back and every source holds still, the engine records the
// following steps without solving them. These tests pin that the replay
// changes no bit. Each run is compared with a reference run of the same
// circuit plus one InertDevice that denies constancy: it stamps nothing, so
// the reference solves every step with the same arithmetic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/problems.hpp"
#include "circuits/tia.hpp"
#include "pex/parasitics.hpp"
#include "spice/dc.hpp"
#include "spice/netlist_parser.hpp"
#include "spice/transient.hpp"
#include "spice/workspace.hpp"
#include "util/rng.hpp"

using namespace autockt;

namespace {

/// A device from ground to ground that stamps nothing, so adding it to a
/// circuit changes no bit of any solve. With `constant` false it denies
/// that its stamps are constant, which makes the transient solve every
/// step. It logs the transient times it is stamped at into `stamped`.
class InertDevice : public spice::Device {
 public:
  explicit InertDevice(bool constant, std::vector<double>* stamped = nullptr)
      : Device("inert"), constant_(constant), stamped_(stamped) {}

  void stamp_real(spice::RealStamp& ctx) const override {
    if (stamped_ != nullptr && ctx.transient) stamped_->push_back(ctx.time);
  }
  void stamp_complex(spice::ComplexStamp& /*ctx*/) const override {}
  bool stamps_constant_between(double /*t_a*/,
                               double /*t_b*/) const override {
    return constant_;
  }
  spice::DeviceTopology topology() const override {
    return {spice::DeviceTopology::Kind::Other,
            {spice::kGround, spice::kGround},
            {}};
  }

 private:
  bool constant_;
  std::vector<double>* stamped_;
};

struct TranRun {
  spice::TranResult result;
  long newton = 0;  // Newton iterations the run took
};

TranRun run(const spice::Circuit& ckt, const spice::OpPoint& op,
            const std::vector<spice::NodeId>& probes,
            const spice::TranOptions& opt) {
  const long before = spice::kernel_stats_snapshot().newton_iterations;
  auto tran = spice::transient(ckt, op, probes, opt);
  EXPECT_TRUE(tran.ok()) << tran.error().message;
  TranRun r;
  if (tran.ok()) r.result = std::move(*tran);
  r.newton = spice::kernel_stats_snapshot().newton_iterations - before;
  return r;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Runs `ckt` with the replay, then adds a non-constant InertDevice and runs
/// the fully stepped reference; expects both bitwise equal. Returns the
/// Newton iterations of {replayed, stepped}.
std::pair<long, long> expect_replay_exact(spice::Circuit& ckt,
                                          const spice::OpPoint& op,
                                          spice::NodeId probe,
                                          const spice::TranOptions& opt) {
  const TranRun replayed = run(ckt, op, {probe}, opt);
  ckt.add<InertDevice>(false);
  const TranRun stepped = run(ckt, op, {probe}, opt);
  EXPECT_FALSE(stepped.result.time.empty());
  EXPECT_TRUE(same_bits(replayed.result.time, stepped.result.time));
  EXPECT_EQ(replayed.result.waveforms.size(), 1u);
  EXPECT_EQ(stepped.result.waveforms.size(), 1u);
  if (replayed.result.waveforms.size() == 1 &&
      stepped.result.waveforms.size() == 1) {
    EXPECT_TRUE(same_bits(replayed.result.waveforms[0],
                          stepped.result.waveforms[0]));
  }
  return {replayed.newton, stepped.newton};
}

/// The settling run of one TIA design, set up as the TIA's settling
/// measurement sets it up: the window, step and edge scale with the
/// design's measured cutoff, and the photodiode current steps by 5 uA.
void expect_tia_replay_exact(const char* build, bool pex) {
  SCOPED_TRACE(build);
  const auto card = spice::TechCard::ptm45();
  const circuits::SizingProblem prob = circuits::make_tia_problem();
  pex::ParasiticModel parasitics;
  circuits::TiaBuildOptions options;
  if (pex) options.parasitics = &parasitics;

  util::Rng rng(pex ? 29 : 17);
  long replayed = 0, stepped = 0;
  for (int design = 0; design < 24; ++design) {
    circuits::ParamVector idx;
    for (const circuits::ParamDef& d : prob.params) {
      idx.push_back(static_cast<int>(
          rng.bounded(static_cast<std::uint64_t>(d.grid_size()))));
    }
    const circuits::TiaParams params =
        circuits::tia_params_from_grid(prob.params, idx);
    const auto sim = circuits::simulate_tia(params, card, options);
    ASSERT_TRUE(sim.ok()) << sim.error().message;

    const double f_bw = std::clamp(sim->cutoff_freq, 1e7, 1e11);
    const double t_window = std::clamp(10.0 / f_bw, 2e-10, 3e-8);
    const spice::Waveform step =
        spice::Waveform::step(0.0, 5e-6, 0.1 * t_window, t_window / 2000.0);
    circuits::TiaBuildOptions step_options = options;
    step_options.input_stimulus = &step;
    spice::Circuit ckt = circuits::build_tia(params, card, step_options);

    spice::DcOptions dc;
    dc.initial_node_v.assign(ckt.num_nodes(), 0.0);
    dc.initial_node_v[ckt.node("vdd")] = card.vdd;
    dc.initial_node_v[ckt.node("in")] = card.vdd / 2.0;
    dc.initial_node_v[ckt.node("out")] = card.vdd / 2.0;
    const auto op = spice::solve_op(ckt, dc);
    ASSERT_TRUE(op.ok()) << op.error().message;

    spice::TranOptions opt;
    opt.t_stop = t_window;
    opt.dt = t_window / 400.0;
    SCOPED_TRACE("design " + std::to_string(design));
    const auto [r, s] = expect_replay_exact(ckt, *op, ckt.node("out"), opt);
    replayed += r;
    stepped += s;
  }
  // The replay skips the settled tail and the quiet stretch before the
  // edge, so the runs solve fewer Newton iterations than the references.
  EXPECT_LT(replayed, stepped);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

// ---------------------------------------------------------------- Waveform

TEST(WaveformConstancy, ConstantIsConstantEverywhere) {
  const auto w = spice::Waveform::constant(1.5);
  EXPECT_TRUE(w.constant_between(0.0, 1.0));
  EXPECT_TRUE(w.constant_between(-1e9, 1e9));
}

TEST(WaveformConstancy, StepIsConstantOffItsRamp) {
  // Binary-exact times: the ramp runs from t0 = 1 to t0 + t_rise = 1.5.
  const auto w = spice::Waveform::step(0.0, 2.0, 1.0, 0.5);
  EXPECT_TRUE(w.constant_between(0.0, 1.0));  // ramp 0 at t0 exactly
  EXPECT_FALSE(w.constant_between(0.0, 1.25));
  EXPECT_FALSE(w.constant_between(1.0, 1.5));
  EXPECT_TRUE(w.constant_between(1.5, 10.0));  // ramp 1 at t0 + t_rise
  EXPECT_FALSE(w.constant_between(1.4, 10.0));
  EXPECT_TRUE(w.constant_between(1.25, 1.25));
  EXPECT_EQ(w.value(1.0), 0.0);
  EXPECT_EQ(w.value(1.5), 2.0);
}

TEST(WaveformConstancy, PulseIsConstantBetweenItsEdges) {
  // Rise over [1, 1.5], fall over [4, 4.5].
  const auto w = spice::Waveform::pulse(0.0, 2.0, 1.0, 3.0, 0.5);
  EXPECT_TRUE(w.constant_between(0.0, 1.0));
  EXPECT_FALSE(w.constant_between(0.0, 1.25));
  EXPECT_TRUE(w.constant_between(1.5, 4.0));  // fall ramp 0 at its start
  EXPECT_FALSE(w.constant_between(1.5, 4.25));
  EXPECT_FALSE(w.constant_between(3.0, 4.5));
  EXPECT_TRUE(w.constant_between(4.5, 10.0));
  // Equal values at both ends with both edges in between: not constant.
  EXPECT_EQ(w.value(0.5), w.value(10.0));
  EXPECT_FALSE(w.constant_between(0.5, 10.0));
}

// ---------------------------------------------------------------- replay

TEST(TransientReplay, TiaSchematicStepResponsesAreBitwiseTheSteppedOnes) {
  expect_tia_replay_exact("schematic", false);
}

TEST(TransientReplay, TiaPexStepResponsesAreBitwiseTheSteppedOnes) {
  expect_tia_replay_exact("pex", true);
}

TEST(TransientReplay, RcBufferDeckGridPointsAreBitwiseTheSteppedOnes) {
  const std::string path =
      std::string(AUTOCKT_SOURCE_DIR) + "/examples/decks/rc_buffer.cir";
  const auto deck = spice::parse_deck(read_file(path));
  ASSERT_TRUE(deck.ok()) << deck.error().message;
  ASSERT_EQ(deck->params.size(), 2u);
  long replayed = 0, stepped = 0;
  for (int i = 0; i < deck->params[0].steps; i += 3) {
    for (int j = 0; j < deck->params[1].steps; j += 2) {
      SCOPED_TRACE(std::to_string(i) + "," + std::to_string(j));
      auto inst = deck->instantiate(
          {deck->params[0].value_at(i), deck->params[1].value_at(j)});
      ASSERT_TRUE(inst.ok()) << inst.error().message;
      ASSERT_EQ(inst->tran.size(), 1u);
      spice::DcOptions dc;
      dc.initial_node_v = inst->initial_node_voltages();
      const auto op = spice::solve_op(inst->circuit, dc);
      ASSERT_TRUE(op.ok()) << op.error().message;
      const auto [r, s] = expect_replay_exact(
          inst->circuit, *op, inst->circuit.node(inst->tran.front().probe),
          inst->tran.front().options);
      replayed += r;
      stepped += s;
    }
  }
  EXPECT_LT(replayed, stepped);  // some grid points reach the replay
}

TEST(TransientReplay, StopsAtAPulseEdgeAndResumes) {
  // RC low-pass, tau = 1 ns, one step per tau: the response settles to a
  // repeating state within each plateau (a nonzero level: a decay toward
  // 0 V would keep shrinking), and the pulse falls at 65 ns (its fall ramp
  // is 0 at step 65 and 1 from step 66 on).
  spice::Circuit ckt;
  const spice::NodeId in = ckt.add_node("in");
  const spice::NodeId out = ckt.add_node("out");
  ckt.add<spice::VoltageSource>(
      "v1", in, spice::kGround,
      spice::Waveform::pulse(1.0, 2.0, 5e-9, 60e-9, 0.5e-9));
  ckt.add<spice::Resistor>("r1", in, out, 1e3);
  ckt.add<spice::Capacitor>("c1", out, spice::kGround, 1e-12);
  std::vector<double> stamped;
  ckt.add<InertDevice>(true, &stamped);
  const auto op = spice::solve_op(ckt);
  ASSERT_TRUE(op.ok());
  spice::TranOptions opt;
  opt.t_stop = 150e-9;
  opt.dt = 1e-9;

  const auto [replayed, reference] = expect_replay_exact(ckt, *op, out, opt);
  EXPECT_LT(replayed, reference);

  // Which steps the replayed run solved: the times it stamped at, before
  // the reference run appended its own.
  stamped.resize(static_cast<std::size_t>(replayed));
  const auto solved = [&](int k) {
    return std::find(stamped.begin(), stamped.end(), k * opt.dt) !=
           stamped.end();
  };
  EXPECT_TRUE(solved(6));     // the rising edge
  EXPECT_FALSE(solved(64));   // replayed on the high plateau
  EXPECT_TRUE(solved(66));    // Newton resumes at the falling edge
  EXPECT_FALSE(solved(150));  // and replays the settled tail again
}
