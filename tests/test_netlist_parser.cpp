#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "spice/ac.hpp"
#include "spice/dc.hpp"
#include "spice/measure.hpp"
#include "spice/netlist_parser.hpp"
#include "spice/transient.hpp"
#include "spice/units.hpp"

using namespace autockt::spice;

// ---------------------------------------------------------------- numbers

TEST(SpiceNumber, PlainAndScientific) {
  EXPECT_DOUBLE_EQ(*parse_spice_number("42"), 42.0);
  EXPECT_DOUBLE_EQ(*parse_spice_number("-3.5"), -3.5);
  EXPECT_DOUBLE_EQ(*parse_spice_number("1e-12"), 1e-12);
  EXPECT_DOUBLE_EQ(*parse_spice_number("2.5E6"), 2.5e6);
}

TEST(SpiceNumber, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(*parse_spice_number("5.6k"), 5.6e3);
  EXPECT_DOUBLE_EQ(*parse_spice_number("10meg"), 10e6);
  EXPECT_DOUBLE_EQ(*parse_spice_number("2g"), 2e9);
  EXPECT_DOUBLE_EQ(*parse_spice_number("1t"), 1e12);
  EXPECT_DOUBLE_EQ(*parse_spice_number("3m"), 3e-3);
  EXPECT_DOUBLE_EQ(*parse_spice_number("4u"), 4e-6);
  EXPECT_DOUBLE_EQ(*parse_spice_number("50n"), 50e-9);
  EXPECT_DOUBLE_EQ(*parse_spice_number("2p"), 2e-12);
  EXPECT_DOUBLE_EQ(*parse_spice_number("100f"), 100e-15);
}

TEST(SpiceNumber, CaseInsensitive) {
  EXPECT_DOUBLE_EQ(*parse_spice_number("5.6K"), 5.6e3);
  EXPECT_DOUBLE_EQ(*parse_spice_number("10MEG"), 10e6);
}

TEST(SpiceNumber, RejectsGarbage) {
  EXPECT_FALSE(parse_spice_number("abc").ok());
  EXPECT_FALSE(parse_spice_number("").ok());
  EXPECT_FALSE(parse_spice_number("1.5x").ok());
  EXPECT_FALSE(parse_spice_number("2kk").ok());
}

TEST(SpiceNumber, RejectsNonFiniteValues) {
  // NaN, infinities and values that overflow, with or without a suffix.
  for (const char* token : {"nan", "NaN", "inf", "-inf", "infinity", "1e400",
                            "-1e400", "1e300t"}) {
    const auto v = parse_spice_number(token);
    ASSERT_FALSE(v.ok()) << token;
    EXPECT_NE(v.error().message.find(std::string("'") + token + "'"),
              std::string::npos)
        << v.error().message;
  }
  // The largest finite values still parse, bit for bit.
  EXPECT_EQ(*parse_spice_number("1.7976931348623157e308"),
            1.7976931348623157e308);
  EXPECT_EQ(*parse_spice_number("1e296t"), 1e296 * 1e12);
}

TEST(NetlistParser, NonFiniteElementValuesFailWithLineAndColumn) {
  // Both once parsed, and the DC solve then reported v(a) = nan or inf as
  // a converged operating point.
  for (const char* value : {"nan", "1e400"}) {
    const auto parsed = parse_netlist(std::string("V1 a 0 ") + value +
                                      "\nR1 a 0 1k\n.end\n");
    ASSERT_FALSE(parsed.ok()) << value;
    const std::string& msg = parsed.error().message;
    EXPECT_NE(msg.find("line 1, col 8"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::string("'") + value + "'"), std::string::npos)
        << msg;
    EXPECT_EQ(parsed.error().line, 1u);
  }
  const auto r = parse_netlist("V1 a 0 1\nR1 a 0 nan\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("line 2, col 8"), std::string::npos)
      << r.error().message;
}

TEST(NetlistParser, MultMustBeAWholeNumberInIntRange) {
  // 1e300 once reached an unchecked cast to int (undefined behaviour), and
  // 0 and -2 built a MOSFET with zero or negative total width.
  for (const char* mult : {"1e300", "0", "-2", "2.5"}) {
    const auto parsed = parse_netlist(
        std::string("v1 d 0 1\nm1 d d 0 0 nmos w=1u mult=") + mult + "\n");
    ASSERT_FALSE(parsed.ok()) << mult;
    const std::string& msg = parsed.error().message;
    EXPECT_NE(msg.find("line 2, col 22"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::string("mult '") + mult +
                       "' must be a whole number >= 1"),
              std::string::npos)
        << msg;
    EXPECT_EQ(parsed.error().line, 2u);
  }
  const auto parsed =
      parse_netlist("v1 d 0 1\nm1 d d 0 0 nmos w=1u mult=4\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const auto* m1 = dynamic_cast<const Mosfet*>(parsed->circuit.find("m1"));
  ASSERT_NE(m1, nullptr);
  EXPECT_EQ(m1->geom().mult, 4);
}

// ---------------------------------------------------------------- decks

TEST(NetlistParser, ResistorDividerSolves) {
  const auto parsed = parse_netlist(R"(
* a comment line
.title divider
v1 a 0 dc 2.0
r1 a b 1k
r2 b 0 1k
.op
.end
)");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->title, "divider");
  EXPECT_TRUE(parsed->want_op);
  auto op = solve_op(parsed->circuit);
  ASSERT_TRUE(op.ok());
  EXPECT_NEAR(op->voltage(parsed->circuit.node("b")), 1.0, 1e-9);
}

TEST(NetlistParser, BareDcValueShorthand) {
  const auto parsed = parse_netlist("v1 a 0 1.5\nr1 a 0 1k\n");
  ASSERT_TRUE(parsed.ok());
  auto op = solve_op(parsed->circuit);
  ASSERT_TRUE(op.ok());
  EXPECT_NEAR(op->voltage(parsed->circuit.node("a")), 1.5, 1e-9);
}

TEST(NetlistParser, RcDeckAcAnalysisMatchesBuilder) {
  const auto parsed = parse_netlist(R"(
v1 in 0 dc 1 ac 1
r1 in out 1k
c1 out 0 1n
.ac out 1k 1g 10
.end
)");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->ac.size(), 1u);
  auto op = solve_op(parsed->circuit);
  ASSERT_TRUE(op.ok());
  auto sweep = ac_sweep(parsed->circuit, *op,
                        parsed->circuit.node(parsed->ac[0].probe), kGround,
                        parsed->ac[0].options);
  ASSERT_TRUE(sweep.ok());
  const auto m = measure_ac(*sweep);
  ASSERT_TRUE(m.f3db_found);
  EXPECT_NEAR(m.f3db, 1.0 / (2.0 * kPi * 1e3 * 1e-9), m.f3db * 0.03);
}

TEST(NetlistParser, MosfetInverterBiasesUp) {
  const auto parsed = parse_netlist(R"(
.card ptm45
vdd vdd 0 dc 1.2
vin in 0 dc 0.55
mn out in 0 0 nmos w=2u l=90n
mp out in vdd vdd pmos w=4u l=90n
.end
)");
  ASSERT_TRUE(parsed.ok());
  auto op = solve_op(parsed->circuit);
  ASSERT_TRUE(op.ok());
  const double vout = op->voltage(parsed->circuit.node("out"));
  EXPECT_GT(vout, 0.0);
  EXPECT_LT(vout, 1.2);
}

TEST(NetlistParser, MosfetMultAndCardOverride) {
  const auto parsed = parse_netlist(
      "vdd d 0 dc 0.8\n"
      "m1 d g 0 0 nmos w=0.5u l=32n mult=4 card=finfet16\n"
      "vg g 0 dc 0.6\n");
  ASSERT_TRUE(parsed.ok());
  const auto* dev = parsed->circuit.find("m1");
  ASSERT_NE(dev, nullptr);
  const auto* mos = dynamic_cast<const Mosfet*>(dev);
  ASSERT_NE(mos, nullptr);
  EXPECT_EQ(mos->geom().mult, 4);
  EXPECT_NEAR(mos->geom().width, 0.5e-6, 1e-12);
}

TEST(NetlistParser, StepSourceAndTranRequest) {
  const auto parsed = parse_netlist(R"(
v1 in 0 dc 0 step 0 1 1n 0.1n
r1 in out 1k
c1 out 0 1p
.tran out 10n 10p
)");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->tran.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed->tran[0].options.t_stop, 10e-9);
  EXPECT_DOUBLE_EQ(parsed->tran[0].options.dt, 10e-12);
  auto op = solve_op(parsed->circuit);
  ASSERT_TRUE(op.ok());
  auto tran = transient(parsed->circuit, *op,
                        {parsed->circuit.node("out")},
                        parsed->tran[0].options);
  ASSERT_TRUE(tran.ok());
  EXPECT_NEAR(tran->waveforms[0].back(), 1.0, 0.01);
}

TEST(NetlistParser, VccsAndBiasProbe) {
  const auto parsed = parse_netlist(R"(
g1 out 0 bias 0 1m
rl out 0 10k
rb bias 0 1g
b1 bias out 0.4
)");
  ASSERT_TRUE(parsed.ok());
  auto op = solve_op(parsed->circuit);
  ASSERT_TRUE(op.ok());
  EXPECT_NEAR(op->voltage(parsed->circuit.node("out")), 0.4, 1e-6);
}

TEST(NetlistParser, NoiseRequest) {
  const auto parsed = parse_netlist(
      "v1 a 0 dc 1\nr1 a out 2k\nr2 out 0 2k\n.noise out 1k 1meg\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->noise.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed->noise[0].options.f_stop, 1e6);
}

// ---------------------------------------------------------------- errors

TEST(NetlistParser, ErrorsCarryLineNumbers) {
  const auto parsed = parse_netlist("v1 a 0 dc 1\nr1 a 0 bogus\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("line 2"), std::string::npos);
}

TEST(NetlistParser, RejectsUnknownElement) {
  const auto parsed = parse_netlist("q1 a b c 1k\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("unknown element"),
            std::string::npos);
}

TEST(NetlistParser, RejectsUnknownDirective) {
  EXPECT_FALSE(parse_netlist(".frobnicate\n").ok());
}

TEST(NetlistParser, RejectsNegativeResistance) {
  EXPECT_FALSE(parse_netlist("r1 a 0 -5\n").ok());
}

TEST(NetlistParser, RejectsMosfetWithoutWidth) {
  EXPECT_FALSE(parse_netlist("m1 d g 0 0 nmos l=90n\n").ok());
}

TEST(NetlistParser, RejectsBadMosType) {
  EXPECT_FALSE(parse_netlist("m1 d g 0 0 cmos w=1u\n").ok());
}

TEST(NetlistParser, RejectsUnusableAnalysisOptions) {
  const std::string head = "v1 a 0 dc 1 ac 1\nr1 a out 1k\nc1 out 0 1p\n";
  // Each card lands on line 4; the message names the offending token.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {".tran out 1n 0", "dt '0'"},
      {".tran out 1n -1p", "dt '-1p'"},
      {".tran out 1n nan", "dt 'nan'"},
      {".tran out 1n 2n", "dt '2n'"},  // dt > t_stop
      {".tran out 0 1p", "t_stop '0'"},
      {".tran out inf 1p", "t_stop 'inf'"},
      {".ac out 0 1g", "f_start '0'"},
      {".ac out -1k 1g", "f_start '-1k'"},
      {".ac out 1k 1k", "f_stop '1k'"},
      {".ac out 1k inf", "f_stop 'inf'"},
      {".ac out 1k 1g 0", "points per decade '0'"},
      {".ac out 1k 1g 2.5", "points per decade '2.5'"},
      {".ac out 1k 1g 1e10", "points per decade '1e10'"},
      {".ac out 1k 1g nan", "points per decade 'nan'"},
      {".noise out 0 1meg", "f_start '0'"},
      {".noise out 1meg 1k", "f_stop '1k'"},
  };
  for (const auto& [card, token] : bad) {
    const auto parsed = parse_netlist(head + card + "\n");
    ASSERT_FALSE(parsed.ok()) << card;
    const std::string& msg = parsed.error().message;
    EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find(token), std::string::npos) << msg;
  }
  // The boundaries themselves are fine.
  EXPECT_TRUE(parse_netlist(head + ".tran out 1n 1n\n").ok());
  EXPECT_TRUE(parse_netlist(head + ".ac out 1k 1g 1\n").ok());
}

TEST(Transient, RejectsNonpositiveStepFromApiCallers) {
  const auto parsed =
      parse_netlist("v1 a 0 dc 1\nr1 a out 1k\nc1 out 0 1p\n");
  ASSERT_TRUE(parsed.ok());
  const auto op = solve_op(parsed->circuit);
  ASSERT_TRUE(op.ok());
  TranOptions opt;
  opt.t_stop = 1e-9;
  const NodeId out = parsed->circuit.node("out");
  for (double dt : {0.0, -1e-12, std::nan("")}) {
    opt.dt = dt;
    const auto tran = transient(parsed->circuit, *op, {out}, opt);
    ASSERT_FALSE(tran.ok()) << dt;
    EXPECT_EQ(tran.error().code, 3);
  }
}

TEST(NetlistParser, RejectsUnknownCard) {
  EXPECT_FALSE(parse_netlist(".card tsmc7\n").ok());
}

TEST(NetlistParser, RejectsProbeOnUnknownNode) {
  const auto parsed = parse_netlist("v1 a 0 dc 1\nr1 a 0 1k\n.ac zz 1k 1meg\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("probe"), std::string::npos);
}

TEST(NetlistParser, StopsAtEndDirective) {
  const auto parsed = parse_netlist(
      "v1 a 0 dc 1\nr1 a 0 1k\n.end\nthis is not a netlist line\n");
  EXPECT_TRUE(parsed.ok());
}

TEST(NetlistParser, GroundAliases) {
  const auto parsed = parse_netlist("v1 a gnd dc 1\nr1 a 0 1k\n");
  ASSERT_TRUE(parsed.ok());
  // Only one non-ground node was created.
  EXPECT_EQ(parsed->circuit.num_nodes(), 2u);
}

// ---------------------------------------------------- sizing dialect

namespace {

constexpr const char* kSizingDeck = R"(
.title param rc
.param rr 1 5 5
.param cc 1 10 4 log
vs inp 0 dc 1 ac 1
r1 inp out {rr}k
c1 out 0 {cc}p
.ac out 1k 1g
.spec gain_vv geq 0.5 1 0.8
.spec f3db_hz geq 1e6 1e8 1e7 fail=1e3
.measure gain_vv gain
.measure f3db_hz f3db
)";

}  // namespace

TEST(DeckDialect, ParamSpecMeasureRoundTrip) {
  const auto deck = parse_deck(kSizingDeck);
  ASSERT_TRUE(deck.ok()) << deck.error().message;
  ASSERT_EQ(deck->params.size(), 2u);
  EXPECT_EQ(deck->params[0].name, "rr");
  EXPECT_DOUBLE_EQ(deck->params[0].lo, 1.0);
  EXPECT_DOUBLE_EQ(deck->params[0].hi, 5.0);
  EXPECT_EQ(deck->params[0].steps, 5);
  EXPECT_FALSE(deck->params[0].log_scale);
  EXPECT_TRUE(deck->params[1].log_scale);

  ASSERT_EQ(deck->specs.size(), 2u);
  EXPECT_EQ(deck->specs[0].name, "gain_vv");
  EXPECT_EQ(deck->specs[0].sense, DeckSpec::Sense::GreaterEq);
  EXPECT_DOUBLE_EQ(deck->specs[0].sample_lo, 0.5);
  EXPECT_DOUBLE_EQ(deck->specs[0].sample_hi, 1.0);
  EXPECT_DOUBLE_EQ(deck->specs[0].norm, 0.8);
  EXPECT_TRUE(deck->specs[1].has_fail);
  EXPECT_DOUBLE_EQ(deck->specs[1].fail_value, 1e3);

  ASSERT_EQ(deck->measures.size(), 2u);
  EXPECT_EQ(deck->measures[0].kind, DeckMeasure::Kind::Gain);
  EXPECT_EQ(deck->measures[1].kind, DeckMeasure::Kind::F3db);
}

TEST(DeckDialect, LinearAndLogGridValues) {
  const auto deck = parse_deck(kSizingDeck);
  ASSERT_TRUE(deck.ok());
  // Linear: 1..5 over 5 steps.
  EXPECT_DOUBLE_EQ(deck->params[0].value_at(0), 1.0);
  EXPECT_DOUBLE_EQ(deck->params[0].value_at(2), 3.0);
  EXPECT_DOUBLE_EQ(deck->params[0].value_at(4), 5.0);
  // Log: 1..10 over 4 steps, geometric.
  EXPECT_DOUBLE_EQ(deck->params[1].value_at(0), 1.0);
  EXPECT_NEAR(deck->params[1].value_at(1), std::pow(10.0, 1.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(deck->params[1].value_at(3), 10.0);
}

TEST(DeckDialect, SubstitutionScalesLikeLiterals) {
  // {rr}k must behave exactly like the literal "3k" at the grid point where
  // rr = 3 — including through the engineering-suffix path.
  const auto deck = parse_deck(kSizingDeck);
  ASSERT_TRUE(deck.ok());
  auto inst = deck->instantiate({3.0, 2.0});
  ASSERT_TRUE(inst.ok()) << inst.error().message;
  const auto* r = inst->circuit.find("r1");
  ASSERT_NE(r, nullptr);
  // Indirect check through the physics: f3db of the RC = 1/(2 pi R C).
  auto op = solve_op(inst->circuit);
  ASSERT_TRUE(op.ok());
  auto sweep = ac_sweep(inst->circuit, *op, inst->circuit.node("out"),
                        kGround, inst->ac[0].options);
  ASSERT_TRUE(sweep.ok());
  const auto m = measure_ac(*sweep);
  ASSERT_TRUE(m.f3db_found);
  EXPECT_NEAR(m.f3db, 1.0 / (2.0 * kPi * 3e3 * 2e-12), 0.02 * m.f3db);
}

TEST(DeckDialect, DefaultInstantiationUsesGridCentre) {
  const auto deck = parse_deck(kSizingDeck);
  ASSERT_TRUE(deck.ok());
  // rr default = value_at(5/2=2) = 3; cc default = value_at(4/2=2).
  EXPECT_DOUBLE_EQ(deck->params[0].default_value(), 3.0);
  EXPECT_NEAR(deck->params[1].default_value(), std::pow(10.0, 2.0 / 3.0),
              1e-12);
}

TEST(DeckDialect, SenseDefaultFailValues) {
  // leq/min specs without fail= get a decisively-failing default; geq gets 0.
  const auto deck = parse_deck(R"(
vs a 0 dc 1 ac 1
r1 a out 1k
c1 out 0 1p
.ac out 1k 1g
.spec hi_spec geq 1 2 1.5
.spec lo_spec leq 1e-3 2e-3 1.5e-3
.measure hi_spec gain
.measure lo_spec f3db
)");
  ASSERT_TRUE(deck.ok()) << deck.error().message;
  EXPECT_DOUBLE_EQ(deck->specs[0].fail_value, 0.0);
  EXPECT_GT(deck->specs[1].fail_value, deck->specs[1].sample_hi * 100);
}

TEST(DeckDialect, ErrorsNameLineAndToken) {
  // Truncated .param (line 2).
  auto e1 = parse_deck("* c\n.param w 1\n");
  ASSERT_FALSE(e1.ok());
  EXPECT_NE(e1.error().message.find("line 2"), std::string::npos);
  EXPECT_NE(e1.error().message.find(".param"), std::string::npos);

  // Bad sense keyword, naming the token.
  auto e2 = parse_deck("r1 a 0 1k\n.spec g above 1 2 1\n.measure g gain\n");
  ASSERT_FALSE(e2.ok());
  EXPECT_NE(e2.error().message.find("line 2"), std::string::npos);
  EXPECT_NE(e2.error().message.find("above"), std::string::npos);

  // Unknown design variable in an element value.
  auto e3 = parse_deck("v1 a 0 dc 1\nr1 a 0 {nope}k\n");
  ASSERT_FALSE(e3.ok());
  EXPECT_NE(e3.error().message.find("line 2"), std::string::npos);
  EXPECT_NE(e3.error().message.find("{nope}"), std::string::npos);

  // Unknown measure kind.
  auto e4 = parse_deck(
      "r1 a 0 1k\n.spec g geq 1 2 1\n.measure g sparkle\n");
  ASSERT_FALSE(e4.ok());
  EXPECT_NE(e4.error().message.find("line 3"), std::string::npos);
  EXPECT_NE(e4.error().message.find("sparkle"), std::string::npos);

  // Duplicate param.
  auto e5 = parse_deck(".param w 1 2 3\n.param w 1 2 3\nr1 a 0 1k\n");
  ASSERT_FALSE(e5.ok());
  EXPECT_NE(e5.error().message.find("line 2"), std::string::npos);
  EXPECT_NE(e5.error().message.find("duplicate"), std::string::npos);
}

TEST(DeckDialect, CrossValidatesSpecMeasureBindings) {
  // Spec without measure.
  auto e1 = parse_deck("r1 a 0 1k\nv1 a 0 ac 1\n.ac a 1k 1g\n"
                       ".spec g geq 1 2 1\n");
  ASSERT_FALSE(e1.ok());
  EXPECT_NE(e1.error().message.find("no .measure"), std::string::npos);

  // Measure referencing an undeclared spec.
  auto e2 = parse_deck("r1 a 0 1k\nv1 a 0 ac 1\n.ac a 1k 1g\n"
                       ".measure ghost gain\n");
  ASSERT_FALSE(e2.ok());
  EXPECT_NE(e2.error().message.find("ghost"), std::string::npos);

  // Measure whose analysis is missing from the deck.
  auto e3 = parse_deck("r1 a 0 1k\nv1 a 0 ac 1\n"
                       ".spec ts leq 1n 2n 1n\n.measure ts settling\n");
  ASSERT_FALSE(e3.ok());
  EXPECT_NE(e3.error().message.find(".tran"), std::string::npos);

  // supply_current naming a device with no branch current.
  auto e4 = parse_deck("r1 a 0 1k\nv1 a 0 dc 1\n"
                       ".spec ib min 1u 2u 1u\n"
                       ".measure ib supply_current r1\n");
  ASSERT_FALSE(e4.ok());
  EXPECT_NE(e4.error().message.find("r1"), std::string::npos);
}

TEST(DeckDialect, RejectsFractionalStepCounts) {
  auto e = parse_deck(".param wn 1 8 15.7\nr1 a 0 1k\n");
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.error().message.find("line 1"), std::string::npos);
  EXPECT_NE(e.error().message.find("15.7"), std::string::npos);
}

TEST(DeckDialect, LogParamRequiresPositiveLo) {
  auto e = parse_deck(".param w 0 2 3 log\nr1 a 0 1k\n");
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.error().message.find("log"), std::string::npos);
}

TEST(DeckDialect, PlainDecksStillParse) {
  // A deck with no sizing declarations round-trips through parse_deck with
  // empty decl lists and instantiates with zero values.
  const auto deck = parse_deck("v1 a 0 dc 1\nr1 a 0 1k\n");
  ASSERT_TRUE(deck.ok());
  EXPECT_FALSE(deck->has_sizing());
  auto inst = deck->instantiate({});
  ASSERT_TRUE(inst.ok());
  EXPECT_EQ(inst->circuit.num_nodes(), 2u);
}
