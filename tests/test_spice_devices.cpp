#include <gtest/gtest.h>

#include "spice/ac.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/units.hpp"
#include "spice/waveform.hpp"

using namespace autockt::spice;

// ---------------------------------------------------------------- Waveform

TEST(Waveform, ConstantIsFlat) {
  const auto w = Waveform::constant(1.5);
  EXPECT_DOUBLE_EQ(w.value(0.0), 1.5);
  EXPECT_DOUBLE_EQ(w.value(1.0), 1.5);
  EXPECT_DOUBLE_EQ(w.dc(), 1.5);
}

TEST(Waveform, StepRampsLinearly) {
  const auto w = Waveform::step(0.0, 1.0, 1e-9, 2e-10);
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(1e-9), 0.0);
  EXPECT_NEAR(w.value(1.1e-9), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(w.value(2e-9), 1.0);
  EXPECT_DOUBLE_EQ(w.dc(), 0.0);
}

TEST(Waveform, PulseReturnsToBase) {
  const auto w = Waveform::pulse(0.0, 2.0, 1e-9, 5e-9, 1e-12);
  EXPECT_NEAR(w.value(3e-9), 2.0, 1e-9);
  EXPECT_NEAR(w.value(10e-9), 0.0, 1e-9);
}

// ------------------------------------------------------------ DC stamping

TEST(Devices, ResistorDividerHalvesVoltage) {
  Circuit ckt;
  const NodeId a = ckt.add_node("a");
  const NodeId b = ckt.add_node("b");
  ckt.add<VoltageSource>("v1", a, kGround, Waveform::constant(2.0));
  ckt.add<Resistor>("r1", a, b, 1e3);
  ckt.add<Resistor>("r2", b, kGround, 1e3);
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  EXPECT_NEAR(op->voltage(b), 1.0, 1e-9);
}

TEST(Devices, VoltageSourceBranchCurrentSign) {
  Circuit ckt;
  const NodeId a = ckt.add_node("a");
  ckt.add<VoltageSource>("v1", a, kGround, Waveform::constant(1.0));
  ckt.add<Resistor>("r1", a, kGround, 1e3);
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  // 1 mA drawn from the source: branch current (plus->minus through the
  // source) is -1 mA by SPICE convention.
  EXPECT_NEAR(op->branch_i[0], -1e-3, 1e-9);
}

TEST(Devices, CurrentSourceIntoResistor) {
  Circuit ckt;
  const NodeId a = ckt.add_node("a");
  ckt.add<CurrentSource>("i1", kGround, a, Waveform::constant(2e-3));
  ckt.add<Resistor>("r1", a, kGround, 500.0);
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  EXPECT_NEAR(op->voltage(a), 1.0, 1e-9);
}

TEST(Devices, CapacitorIsOpenAtDc) {
  Circuit ckt;
  const NodeId a = ckt.add_node("a");
  const NodeId b = ckt.add_node("b");
  ckt.add<VoltageSource>("v1", a, kGround, Waveform::constant(1.0));
  ckt.add<Resistor>("r1", a, b, 1e3);
  ckt.add<Capacitor>("c1", b, kGround, 1e-12);
  ckt.add<Resistor>("rleak", b, kGround, 1e9);  // define node b at DC
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  EXPECT_NEAR(op->voltage(b), 1.0, 1e-3);  // no DC current through cap
}

TEST(Devices, VccsInjectsProportionalCurrent) {
  Circuit ckt;
  const NodeId in = ckt.add_node("in");
  const NodeId out = ckt.add_node("out");
  ckt.add<VoltageSource>("v1", in, kGround, Waveform::constant(0.5));
  ckt.add<Vccs>("g1", out, kGround, in, kGround, 1e-3);  // i = 0.5 mA out
  ckt.add<Resistor>("rl", out, kGround, 1e3);
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  // Current leaves `out` through the VCCS: v(out) = -gm*v(in)*R = -0.5.
  EXPECT_NEAR(op->voltage(out), -0.5, 1e-9);
}

TEST(Devices, BiasProbeForcesSenseNode) {
  // Inverting amplifier made of a VCCS; the probe must drive `bias` so that
  // out sits exactly at 0.4.
  Circuit ckt;
  const NodeId bias = ckt.add_node("bias");
  const NodeId out = ckt.add_node("out");
  ckt.add<Vccs>("g1", out, kGround, bias, kGround, 1e-3);
  ckt.add<Resistor>("rl", out, kGround, 10e3);
  ckt.add<Resistor>("rb", bias, kGround, 1e9);  // weak definition
  ckt.add<BiasProbe>("servo", bias, out, 0.4);
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  EXPECT_NEAR(op->voltage(out), 0.4, 1e-6);
  // v(out) = -gm*R*v(bias) => v(bias) = -0.04
  EXPECT_NEAR(op->voltage(bias), -0.04, 1e-6);
}

TEST(Devices, BiasProbeAcGroundsBiasNode) {
  Circuit ckt;
  const NodeId bias = ckt.add_node("bias");
  const NodeId out = ckt.add_node("out");
  ckt.add<Vccs>("g1", out, kGround, bias, kGround, 1e-3);
  ckt.add<Resistor>("rl", out, kGround, 10e3);
  ckt.add<Resistor>("rb", bias, kGround, 1e9);
  ckt.add<BiasProbe>("servo", bias, out, 0.4);
  auto op = solve_op(ckt);
  ASSERT_TRUE(op.ok());
  auto x = ac_solve_at(ckt, *op, 1e6);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(std::abs((*x)[bias - 1]), 0.0, 1e-12);
}

TEST(Devices, ResistorThermalNoisePsd) {
  Resistor r("r", 1, 0, 1e3);
  std::vector<NoiseSource> sources;
  r.collect_noise({}, 1e6, 300.0, sources);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_NEAR(sources[0].psd, 4.0 * kBoltzmann * 300.0 / 1e3, 1e-25);
}

TEST(Devices, SourceScaleScalesSources) {
  Circuit ckt;
  const NodeId a = ckt.add_node("a");
  ckt.add<VoltageSource>("v1", a, kGround, Waveform::constant(2.0));
  ckt.add<Resistor>("r1", a, kGround, 1e3);

  // Identity slot table: entry (r, c) of the matrix is value slot r*n + c.
  const std::size_t n = ckt.num_unknowns();
  std::vector<int> slots(n * n);
  for (std::size_t i = 0; i < n * n; ++i) slots[i] = static_cast<int>(i);
  std::vector<double> mat(n * n, 0.0);
  std::vector<double> rhs(n, 0.0);
  std::vector<double> volts(ckt.num_nodes(), 0.0);
  RealStamp ctx{MnaSink(slots.data(), n, mat.data()), rhs, volts};
  ctx.num_nodes = ckt.num_nodes();
  ctx.source_scale = 0.5;
  ckt.stamp_real(ctx);
  EXPECT_DOUBLE_EQ(rhs[ctx.row_of_branch(0)], 1.0);  // 2.0 * 0.5
}

// ---------------------------------------------------------------- Circuit

TEST(Circuit, NodeLookupAndGroundAliases) {
  Circuit ckt;
  const NodeId a = ckt.add_node("a");
  EXPECT_EQ(ckt.node("a"), a);
  EXPECT_EQ(ckt.node("0"), kGround);
  EXPECT_EQ(ckt.node("gnd"), kGround);
  EXPECT_THROW(ckt.node("missing"), std::out_of_range);
  EXPECT_THROW(ckt.add_node("a"), std::invalid_argument);
}

TEST(Circuit, BranchAccounting) {
  Circuit ckt;
  const NodeId a = ckt.add_node("a");
  const NodeId b = ckt.add_node("b");
  ckt.add<VoltageSource>("v1", a, kGround, Waveform::constant(1.0));
  ckt.add<VoltageSource>("v2", b, kGround, Waveform::constant(1.0));
  ckt.add<Resistor>("r", a, b, 1.0);
  EXPECT_EQ(ckt.num_branches(), 2u);
  EXPECT_EQ(ckt.num_unknowns(), 4u);  // 2 nodes + 2 branches
}

TEST(Circuit, FindByName) {
  Circuit ckt;
  const NodeId a = ckt.add_node("a");
  ckt.add<Resistor>("r1", a, kGround, 1.0);
  EXPECT_NE(ckt.find("r1"), nullptr);
  EXPECT_EQ(ckt.find("zz"), nullptr);
}
