#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <string>
#include <vector>

#include "spice/ac.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/measure.hpp"
#include "spice/noise.hpp"
#include "spice/transient.hpp"
#include "spice/units.hpp"

using namespace autockt::spice;

namespace {

/// RC low-pass: V source (1 V AC) -> R -> node out -> C -> gnd.
Circuit make_rc(double r, double c) {
  Circuit ckt;
  const NodeId in = ckt.add_node("in");
  const NodeId out = ckt.add_node("out");
  ckt.add<VoltageSource>("v1", in, kGround, Waveform::constant(1.0),
                         /*ac_mag=*/1.0);
  ckt.add<Resistor>("r1", in, out, r);
  ckt.add<Capacitor>("c1", out, kGround, c);
  return ckt;
}

}  // namespace

// ---------------------------------------------------------------- DC

TEST(DcAnalysis, LadderNetwork) {
  Circuit ckt;
  const NodeId a = ckt.add_node("a");
  const NodeId b = ckt.add_node("b");
  const NodeId c = ckt.add_node("c");
  ckt.add<VoltageSource>("v1", a, kGround, Waveform::constant(3.0));
  ckt.add<Resistor>("r1", a, b, 1e3);
  ckt.add<Resistor>("r2", b, c, 1e3);
  ckt.add<Resistor>("r3", c, kGround, 1e3);
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  EXPECT_NEAR(op->voltage(b), 2.0, 1e-9);
  EXPECT_NEAR(op->voltage(c), 1.0, 1e-9);
}

TEST(DcAnalysis, FloatingNodeReportsError) {
  Circuit ckt;
  const NodeId a = ckt.add_node("a");
  ckt.add_node("floating");
  ckt.add<VoltageSource>("v1", a, kGround, Waveform::constant(1.0));
  ckt.add<Resistor>("r1", a, kGround, 1e3);
  auto op = solve_op(ckt);
  EXPECT_FALSE(op.ok());  // singular matrix surfaced, not a NaN solution
}

TEST(DcAnalysis, NonFiniteSourceIsNonConvergence) {
  // A NaN or infinite source makes every Newton update non-finite; that
  // must fail the convergence test, not pass as an operating point.
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    Circuit ckt;
    const NodeId a = ckt.add_node("a");
    ckt.add<VoltageSource>("v1", a, kGround, Waveform::constant(v));
    ckt.add<Resistor>("r1", a, kGround, 1e3);
    const auto op = solve_op(ckt);
    ASSERT_FALSE(op.ok()) << v;
    EXPECT_EQ(op.error().message, "DC operating point did not converge");
    EXPECT_EQ(op.error().code, 1);
  }
}

TEST(DcAnalysis, InitialGuessIsOptional) {
  Circuit ckt = make_rc(1e3, 1e-12);
  DcOptions opt;
  opt.initial_node_v = {0.0, 0.7, 0.2};
  auto op = solve_op(ckt, opt);
  ASSERT_TRUE(op.ok());
  EXPECT_NEAR(op->voltage(ckt.node("out")), 1.0, 1e-6);
}

// ---------------------------------------------------------------- AC

TEST(AcAnalysis, RcPoleMagnitudeAndPhase) {
  const double r = 1e3, c = 1e-9;
  const double f_pole = 1.0 / (2.0 * kPi * r * c);
  Circuit ckt = make_rc(r, c);
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());

  auto x = ac_solve_at(ckt, *op, f_pole);
  ASSERT_TRUE(x.ok());
  const std::complex<double> h = (*x)[ckt.node("out") - 1];
  EXPECT_NEAR(std::abs(h), 1.0 / std::sqrt(2.0), 1e-6);
  EXPECT_NEAR(std::arg(h) * 180.0 / kPi, -45.0, 1e-3);
}

TEST(SweepOptions, RejectedBeforeTheSweepIsSized) {
  // Every sweep entry point checks f_start, f_stop and the resolution, by
  // the deck parser's rules, before it sizes the log-spaced grid: the grid
  // size of f_start = 0 or a negative f_start is not a number, and the one
  // of a huge span overflows an int.
  Circuit ckt = make_rc(1e3, 1e-9);
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  const NodeId out = ckt.node("out");
  SimWorkspace ws(ckt, SimWorkspace::Sides::Complex);
  const std::vector<const Circuit*> circuits{&ckt, &ckt};
  const std::vector<const OpPoint*> ops{&*op, &*op};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  struct Case {
    double f_start, f_stop;
    int per_decade;
    std::string error;
  };
  const Case cases[] = {
      {0.0, 1e6, 10, "f_start 0 must be finite and > 0"},
      {-1e3, 1e6, 10, "f_start -1000 must be finite and > 0"},
      {nan, 1e6, 10, "must be finite and > 0"},
      {inf, 1e6, 10, "f_start inf must be finite and > 0"},
      {1e3, 1e3, 10, "f_stop 1000 must be finite and > f_start"},
      {1e3, -1e6, 10, "f_stop -1000000 must be finite and > f_start"},
      {1e3, inf, 10, "f_stop inf must be finite and > f_start"},
      {1e3, 1e6, 0, "points per decade 0 must be a whole number >= 1"},
      {1e3, 1e6, -4, "points per decade -4 must be a whole number >= 1"},
      {1e3, 1e12, kMaxInt, "has more points than an int holds"},
      {1e-320, 1e300, 1, "has more points than an int holds"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.error);
    AcOptions ac;
    ac.f_start = c.f_start;
    ac.f_stop = c.f_stop;
    ac.points_per_decade = c.per_decade;
    NoiseOptions noise;
    noise.f_start = c.f_start;
    noise.f_stop = c.f_stop;
    noise.points_per_decade = c.per_decade;
    const auto rejects = [&](const auto& result, const std::string& prefix,
                             int code) {
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.error().code, code);
      EXPECT_EQ(result.error().message.rfind(prefix, 0), 0u)
          << result.error().message;
      EXPECT_NE(result.error().message.find(c.error), std::string::npos)
          << result.error().message;
    };
    rejects(ac_sweep(ckt, *op, out, kGround, ac), "AC sweep: ", 2);
    rejects(noise_sweep(ckt, *op, out, kGround, noise), "noise sweep: ", 4);
    for (std::size_t lanes : {std::size_t{1}, std::size_t{2}}) {
      const std::vector<const Circuit*> lane_circuits(circuits.begin(),
                                                      circuits.begin() +
                                                          lanes);
      const std::vector<const OpPoint*> lane_ops(ops.begin(),
                                                 ops.begin() + lanes);
      const auto ac_lanes =
          ac_sweep_batch(lane_circuits, lane_ops, out, kGround, ac, ws);
      ASSERT_EQ(ac_lanes.size(), lanes);
      for (const auto& r : ac_lanes) rejects(r, "AC sweep: ", 2);
      const auto noise_lanes =
          noise_sweep_batch(lane_circuits, lane_ops, out, kGround, noise, ws);
      ASSERT_EQ(noise_lanes.size(), lanes);
      for (const auto& r : noise_lanes) rejects(r, "noise sweep: ", 4);
    }
  }
  // The edges of the rules still sweep: one point per decade over a
  // decade, and a just-larger f_stop.
  AcOptions ac;
  ac.f_start = 1e3;
  ac.f_stop = 1e4;
  ac.points_per_decade = 1;
  EXPECT_TRUE(ac_sweep(ckt, *op, out, kGround, ac).ok());
  ac.f_stop = std::nextafter(1e3, inf);
  EXPECT_TRUE(ac_sweep_batch(circuits, ops, out, kGround, ac, ws)[1].ok());
  NoiseOptions noise;
  noise.f_start = 1e3;
  noise.f_stop = 1e4;
  noise.points_per_decade = 1;
  EXPECT_TRUE(noise_sweep(ckt, *op, out, kGround, noise).ok());
  EXPECT_TRUE(
      noise_sweep_batch(circuits, ops, out, kGround, noise, ws)[0].ok());
}

TEST(AcAnalysis, SweepIsLogSpacedAndMonotone) {
  Circuit ckt = make_rc(1e3, 1e-9);
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  AcOptions opt;
  opt.f_start = 1e3;
  opt.f_stop = 1e9;
  opt.points_per_decade = 5;
  auto sweep = ac_sweep(ckt, *op, ckt.node("out"), kGround, opt);
  ASSERT_TRUE(sweep.ok());
  ASSERT_GE(sweep->size(), 10u);
  EXPECT_NEAR(sweep->front().freq, 1e3, 1.0);
  EXPECT_NEAR(sweep->back().freq, 1e9, 1e3);
  for (std::size_t i = 1; i < sweep->size(); ++i) {
    EXPECT_GT((*sweep)[i].freq, (*sweep)[i - 1].freq);
    EXPECT_LE(std::abs((*sweep)[i].value),
              std::abs((*sweep)[i - 1].value) + 1e-12);
  }
}

TEST(AcAnalysis, MeasureExtractsF3db) {
  const double r = 1e3, c = 1e-9;
  const double f_pole = 1.0 / (2.0 * kPi * r * c);
  Circuit ckt = make_rc(r, c);
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  AcOptions opt;
  opt.f_start = 1e3;
  opt.f_stop = 1e9;
  auto sweep = ac_sweep(ckt, *op, ckt.node("out"), kGround, opt);
  ASSERT_TRUE(sweep.ok());
  const auto m = measure_ac(*sweep);
  ASSERT_TRUE(m.f3db_found);
  EXPECT_NEAR(m.f3db, f_pole, f_pole * 0.02);
  EXPECT_NEAR(m.dc_gain, 1.0, 1e-4);
  EXPECT_FALSE(m.ugbw_found);  // gain never exceeds 1
}

TEST(AcAnalysis, MeasureUgbwAndPhaseMarginOfIntegratorLikeStage) {
  // VCCS + load cap: H(s) = gm/(sC) -> |H|=1 at gm/(2 pi C), PM = 90 deg.
  Circuit ckt;
  const NodeId in = ckt.add_node("in");
  const NodeId out = ckt.add_node("out");
  ckt.add<VoltageSource>("v1", in, kGround, Waveform::constant(0.0), 1.0);
  ckt.add<Vccs>("g1", out, kGround, in, kGround, -1e-3);  // non-inverting
  ckt.add<Resistor>("ro", out, kGround, 1e7);             // finite DC gain
  ckt.add<Capacitor>("cl", out, kGround, 1e-12);
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  AcOptions opt;
  opt.f_start = 1e2;
  opt.f_stop = 1e11;
  auto sweep = ac_sweep(ckt, *op, out, kGround, opt);
  ASSERT_TRUE(sweep.ok());
  const auto m = measure_ac(*sweep);
  ASSERT_TRUE(m.ugbw_found);
  EXPECT_NEAR(m.ugbw, 1e-3 / (2.0 * kPi * 1e-12), m.ugbw * 0.02);
  EXPECT_NEAR(m.phase_margin_deg, 90.0, 1.5);
}

// ---------------------------------------------------------------- Transient

TEST(Transient, RcStepMatchesAnalytic) {
  const double r = 1e3, c = 1e-9;  // tau = 1 us
  Circuit ckt;
  const NodeId in = ckt.add_node("in");
  const NodeId out = ckt.add_node("out");
  ckt.add<VoltageSource>("v1", in, kGround,
                         Waveform::step(0.0, 1.0, 0.0, 1e-9));
  ckt.add<Resistor>("r1", in, out, r);
  ckt.add<Capacitor>("c1", out, kGround, c);

  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  TranOptions opt;
  opt.t_stop = 5e-6;
  opt.dt = 5e-9;
  auto tran = transient(ckt, *op, {out}, opt);
  ASSERT_TRUE(tran.ok());

  const double tau = r * c;
  for (std::size_t k = 0; k < tran->time.size(); k += 50) {
    const double t = tran->time[k];
    const double expected = 1.0 - std::exp(-t / tau);
    EXPECT_NEAR(tran->waveforms[0][k], expected, 0.01) << "t=" << t;
  }
  // Window is 5 tau: analytic endpoint is 1 - e^-5.
  EXPECT_NEAR(tran->waveforms[0].back(), 1.0 - std::exp(-5.0), 1e-3);
}

TEST(Transient, EnergyConservationRcDivider) {
  // Two capacitors in series across a source settle to the capacitive
  // divider value.
  Circuit ckt;
  const NodeId in = ckt.add_node("in");
  const NodeId mid = ckt.add_node("mid");
  ckt.add<VoltageSource>("v1", in, kGround,
                         Waveform::step(0.0, 1.0, 0.0, 1e-9));
  ckt.add<Resistor>("r", in, mid, 1e2);  // makes the problem well-posed
  ckt.add<Capacitor>("c1", mid, kGround, 2e-12);
  ckt.add<Resistor>("rb", mid, kGround, 1e9);
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  TranOptions opt;
  opt.t_stop = 1e-8;
  opt.dt = 1e-11;
  auto tran = transient(ckt, *op, {mid}, opt);
  ASSERT_TRUE(tran.ok());
  EXPECT_NEAR(tran->waveforms[0].back(), 1.0, 0.01);
}

TEST(Transient, SettlingTimeOfFirstOrderStep) {
  // Analytic: settles to 2% band at t = -tau*ln(0.02) ~ 3.912 tau.
  const double tau = 1e-6;
  std::vector<double> time, wave;
  for (int i = 0; i <= 2000; ++i) {
    const double t = 10e-6 * i / 2000.0;
    time.push_back(t);
    wave.push_back(1.0 - std::exp(-t / tau));
  }
  const double ts = settling_time(time, wave, 0.02);
  EXPECT_NEAR(ts, 3.912e-6, 0.05e-6);
}

TEST(Transient, SettlingTimeHandlesFlatWave) {
  std::vector<double> time{0.0, 1.0, 2.0};
  std::vector<double> wave{1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(settling_time(time, wave, 0.02), 0.0);
}

// ---------------------------------------------------------------- Noise

TEST(Noise, ResistorDividerMatchesJohnsonFormula) {
  // Output noise of R1 || R2 divider across band: Sv = 4kT*(R1||R2).
  Circuit ckt;
  const NodeId a = ckt.add_node("a");
  const NodeId out = ckt.add_node("out");
  ckt.add<VoltageSource>("v1", a, kGround, Waveform::constant(1.0));
  ckt.add<Resistor>("r1", a, out, 2e3);
  ckt.add<Resistor>("r2", out, kGround, 2e3);
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  NoiseOptions opt;
  opt.f_start = 1e3;
  opt.f_stop = 1e6;
  auto noise = noise_sweep(ckt, *op, out, kGround, opt);
  ASSERT_TRUE(noise.ok());
  const double expected_psd = 4.0 * kBoltzmann * 300.0 * 1e3;  // R1||R2 = 1k
  for (double psd : noise->out_psd) {
    EXPECT_NEAR(psd, expected_psd, expected_psd * 1e-6);
  }
  // Integrated power ~ PSD * bandwidth.
  EXPECT_NEAR(noise->total_output_v2, expected_psd * (1e6 - 1e3),
              expected_psd * 1e6 * 0.01);
  EXPECT_NEAR(noise->total_output_vrms(),
              std::sqrt(noise->total_output_v2), 1e-15);
}

TEST(Noise, RcFilterShapesResistorNoise) {
  // With a capacitor, total integrated output noise approaches kT/C.
  const double c = 1e-12;
  Circuit ckt = make_rc(1e3, c);
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  NoiseOptions opt;
  opt.f_start = 1e2;
  opt.f_stop = 1e12;  // well past the pole
  opt.points_per_decade = 10;
  auto noise = noise_sweep(ckt, *op, ckt.node("out"), kGround, opt);
  ASSERT_TRUE(noise.ok());
  const double kt_over_c = kBoltzmann * 300.0 / c;
  EXPECT_NEAR(noise->total_output_v2, kt_over_c, kt_over_c * 0.05);
}

TEST(Noise, PsdDecreasesAbovePole) {
  Circuit ckt = make_rc(1e3, 1e-9);
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  NoiseOptions opt;
  opt.f_start = 1e3;
  opt.f_stop = 1e9;
  auto noise = noise_sweep(ckt, *op, ckt.node("out"), kGround, opt);
  ASSERT_TRUE(noise.ok());
  EXPECT_GT(noise->out_psd.front(), 10.0 * noise->out_psd.back());
}
