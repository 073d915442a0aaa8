// Deck-compiled sizing problems and the circuit registry: a .cir deck with
// .param/.spec/.measure declarations must round-trip into a SizingProblem
// equivalent to a hand-built one, resolve through the registry by name or
// path, and train deterministically through the standard pipeline.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "autockt/autockt.hpp"
#include "circuits/netlist_problem.hpp"
#include "circuits/registry.hpp"
#include "spice/ac.hpp"
#include "spice/dc.hpp"
#include "spice/measure.hpp"
#include "spice/units.hpp"

using namespace autockt;
using namespace autockt::circuits;

namespace {

// RC low-pass with a parameterized resistor and capacitor: cheap enough to
// evaluate exhaustively, simple enough to hand-build for the equivalence
// check.
constexpr const char* kRcDeck = R"(
.title parameterized rc low-pass
.param rr 1 5 5
.param cc 1 4 4
vs inp 0 dc 1 ac 1
r1 inp out {rr}k
c1 out 0 {cc}p
.ac out 1k 10g
.spec gain_vv geq 0.5 1 0.8
.spec f3db_hz geq 1e7 1e8 3e7
.measure gain_vv gain
.measure f3db_hz f3db
)";

std::string decks_dir() {
  return std::string(AUTOCKT_SOURCE_DIR) + "/examples/decks";
}

}  // namespace

TEST(NetlistProblem, CompilesParamAndSpecDefs) {
  auto prob = make_netlist_problem_from_text(kRcDeck, "rc");
  ASSERT_TRUE(prob.ok()) << prob.error().message;
  EXPECT_EQ(prob->name, "rc");
  EXPECT_EQ(prob->description, "parameterized rc low-pass");

  ASSERT_EQ(prob->params.size(), 2u);
  EXPECT_EQ(prob->params[0].name, "rr");
  EXPECT_EQ(prob->params[0].grid_size(), 5);
  EXPECT_DOUBLE_EQ(prob->params[0].value(0), 1.0);
  EXPECT_DOUBLE_EQ(prob->params[0].value(4), 5.0);
  EXPECT_EQ(prob->params[1].grid_size(), 4);

  ASSERT_EQ(prob->specs.size(), 2u);
  EXPECT_EQ(prob->specs[0].name, "gain_vv");
  EXPECT_EQ(prob->specs[0].sense, SpecSense::GreaterEq);
  EXPECT_DOUBLE_EQ(prob->specs[1].sample_lo, 1e7);
  EXPECT_DOUBLE_EQ(prob->specs[1].norm_const, 3e7);
}

TEST(NetlistProblem, EvaluationMatchesHandBuiltCircuit) {
  auto prob = make_netlist_problem_from_text(kRcDeck, "rc");
  ASSERT_TRUE(prob.ok());

  // Every grid point must reproduce the measurement of the identical
  // builder-API circuit run through the same analyses.
  for (int ri = 0; ri < 5; ++ri) {
    for (int ci = 0; ci < 4; ++ci) {
      auto specs = prob->evaluate({ri, ci});
      ASSERT_TRUE(specs.ok()) << specs.error().message;

      const double r_ohm = (1.0 + ri) * 1e3;
      const double c_f = (1.0 + ci) * 1e-12;
      using namespace spice;
      Circuit ckt;
      const NodeId inp = ckt.add_node("inp");
      const NodeId out = ckt.add_node("out");
      ckt.add<VoltageSource>("vs", inp, kGround, Waveform::constant(1.0),
                             1.0);
      ckt.add<Resistor>("r1", inp, out, r_ohm);
      ckt.add<Capacitor>("c1", out, kGround, c_f);
      auto op = solve_op(ckt);
      ASSERT_TRUE(op.ok());
      AcOptions ac;
      ac.f_start = 1e3;
      ac.f_stop = 10e9;
      auto sweep = ac_sweep(ckt, *op, out, kGround, ac);
      ASSERT_TRUE(sweep.ok());
      const auto m = measure_ac(*sweep);

      EXPECT_NEAR((*specs)[0], m.dc_gain, 1e-12 * std::abs(m.dc_gain));
      ASSERT_TRUE(m.f3db_found);
      EXPECT_NEAR((*specs)[1], m.f3db, 1e-9 * m.f3db);
      // And the physics: f3db ~ 1/(2 pi R C).
      EXPECT_NEAR((*specs)[1], 1.0 / (2.0 * kPi * r_ohm * c_f),
                  0.02 / (2.0 * kPi * r_ohm * c_f));
    }
  }
}

TEST(NetlistProblem, RejectsDecksWithoutSizing) {
  auto no_params = make_netlist_problem_from_text(
      "v1 a 0 dc 1\nr1 a 0 1k\n", "bare");
  ASSERT_FALSE(no_params.ok());
  EXPECT_NE(no_params.error().message.find(".param"), std::string::npos);
}

TEST(NetlistProblem, FromFileNamesProblemAfterStem) {
  const std::string path = decks_dir() + "/five_t_ota.cir";
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  auto prob = make_netlist_problem_from_file(path);
  ASSERT_TRUE(prob.ok()) << prob.error().message;
  EXPECT_EQ(prob->name, "five_t_ota");
  EXPECT_EQ(prob->params.size(), 4u);
  EXPECT_EQ(prob->specs.size(), 3u);
}

TEST(NetlistProblem, ShippedDecksCharacterize) {
  // Every checked-in example deck must compile and evaluate its grid centre
  // to finite spec values — the same invariant the CI smoke job enforces.
  int seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(decks_dir())) {
    if (entry.path().extension() != ".cir") continue;
    ++seen;
    auto prob = make_netlist_problem_from_file(entry.path().string());
    ASSERT_TRUE(prob.ok()) << entry.path() << ": " << prob.error().message;
    auto specs = prob->evaluate(prob->center_params());
    ASSERT_TRUE(specs.ok()) << entry.path() << ": " << specs.error().message;
    for (double v : *specs) EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_GE(seen, 3);
}

// ------------------------------------------------------------- registry

TEST(CircuitRegistry, BuiltinsResolveByName) {
  const auto reg = CircuitRegistry::with_builtins();
  EXPECT_TRUE(reg.has("tia"));
  EXPECT_TRUE(reg.has("two_stage_opamp"));
  EXPECT_TRUE(reg.has("ngm_ota"));
  EXPECT_TRUE(reg.has("ngm_ota_pex"));

  ProblemOptions options;
  auto prob = reg.make("tia", options);
  ASSERT_TRUE(prob.ok());
  EXPECT_EQ(prob->name, "tia");
  EXPECT_EQ(prob->params.size(), 6u);
}

TEST(CircuitRegistry, UnknownNameListsScenarios) {
  const auto reg = CircuitRegistry::with_builtins();
  auto e = reg.make("not_a_circuit");
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.error().message.find("not_a_circuit"), std::string::npos);
  EXPECT_NE(e.error().message.find("tia"), std::string::npos);
}

TEST(CircuitRegistry, DeckDirAndPathResolution) {
  auto reg = CircuitRegistry::with_builtins();
  auto registered = reg.add_deck_dir(decks_dir());
  ASSERT_TRUE(registered.ok()) << registered.error().message;
  EXPECT_GE(registered->size(), 3u);
  EXPECT_TRUE(reg.has("common_source"));
  EXPECT_TRUE(reg.has("five_t_ota"));
  EXPECT_TRUE(reg.has("rc_buffer"));

  // A path argument bypasses registration entirely.
  auto by_path = reg.make(decks_dir() + "/rc_buffer.cir");
  ASSERT_TRUE(by_path.ok()) << by_path.error().message;
  EXPECT_EQ(by_path->name, "rc_buffer");

  // Registered deck and path-resolved deck agree at the grid centre.
  auto by_name = reg.make("rc_buffer");
  ASSERT_TRUE(by_name.ok());
  auto s1 = by_name->evaluate(by_name->center_params());
  auto s2 = by_path->evaluate(by_path->center_params());
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s1, *s2);
}

TEST(CircuitRegistry, RejectsDeckStemShadowingRegisteredScenario) {
  // A deck named tia.cir must not silently replace the builtin TIA.
  namespace fs = std::filesystem;
  const fs::path tmp = fs::temp_directory_path() / "tia.cir";
  fs::copy_file(decks_dir() + "/rc_buffer.cir", tmp,
                fs::copy_options::overwrite_existing);
  auto reg = CircuitRegistry::with_builtins();
  auto e = reg.add_deck_file(tmp.string());
  fs::remove(tmp);
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.error().message.find("already registered"), std::string::npos);
  // The builtin survives.
  auto prob = reg.make("tia");
  ASSERT_TRUE(prob.ok());
  EXPECT_EQ(prob->params.size(), 6u);
}

TEST(CircuitRegistry, RejectsDeckWithoutSizingDeclarations) {
  namespace fs = std::filesystem;
  const fs::path tmp = fs::temp_directory_path() / "autockt_bare_deck.cir";
  {
    std::ofstream out(tmp);
    out << "v1 a 0 dc 1\nr1 a 0 1k\n";
  }
  auto reg = CircuitRegistry::with_builtins();
  auto e = reg.add_deck_file(tmp.string());
  fs::remove(tmp);
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.error().message.find("sizing"), std::string::npos);
}

// ------------------------------------------------- deterministic training

TEST(NetlistProblem, DeckProblemTrainsDeterministically) {
  auto run = [](std::uint64_t seed) {
    auto problem = std::make_shared<const SizingProblem>(
        *make_netlist_problem_from_text(kRcDeck, "rc"));
    core::AutoCktConfig config;
    config.seed = seed;
    config.env_config.horizon = 10;
    config.ppo.max_iterations = 2;
    config.ppo.steps_per_iteration = 120;
    config.ppo.num_workers = 2;
    config.ppo.envs_per_worker = 2;
    config.train_target_count = 8;
    config.holdout_target_count = 5;
    config.holdout_interval = 1;
    return core::train_agent(problem, config);
  };
  const auto a = run(11);
  const auto b = run(11);
  const auto c = run(12);

  ASSERT_EQ(a.history.iterations.size(), b.history.iterations.size());
  for (std::size_t i = 0; i < a.history.iterations.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.history.iterations[i].mean_episode_reward,
                     b.history.iterations[i].mean_episode_reward);
    EXPECT_DOUBLE_EQ(a.history.iterations[i].goal_rate,
                     b.history.iterations[i].goal_rate);
  }
  EXPECT_EQ(a.train_suite.targets(), b.train_suite.targets());
  // The holdout suite derives from the suite seed alone, so it is shared
  // even across different training seeds.
  EXPECT_EQ(a.holdout_suite, c.holdout_suite);
}

TEST(NetlistProblem, RegistryScenarioTrainsThroughAutocktApi) {
  // The registry-driven train_agent overload: resolve a deck scenario by
  // name and train through the same API the examples use.
  auto reg = CircuitRegistry::with_builtins();
  ASSERT_TRUE(reg.add_deck_dir(decks_dir()).ok());

  core::AutoCktConfig config;
  config.seed = 3;
  config.env_config.horizon = 10;
  config.ppo.max_iterations = 1;
  config.ppo.steps_per_iteration = 80;
  config.train_target_count = 5;
  config.holdout_target_count = 4;

  auto outcome = core::train_agent(reg, "common_source", {}, config);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  EXPECT_EQ(outcome->problem->name, "common_source");
  EXPECT_EQ(outcome->outcome.train_suite.size(), 5u);

  // Deployment and the generalization scorecard run against the resolved
  // problem unchanged.
  const auto report = core::evaluate_generalization(
      outcome->outcome.agent, outcome->problem,
      outcome->outcome.train_suite, outcome->outcome.holdout_suite,
      config.env_config, 5);
  EXPECT_EQ(report.train.total(), 5);
  EXPECT_EQ(report.holdout.total(), 4);

  auto bad = core::train_agent(reg, "no_such_scenario", {}, config);
  EXPECT_FALSE(bad.ok());
}
