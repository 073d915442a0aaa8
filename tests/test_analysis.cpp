// Static-analysis subsystem: the diagnostic catalog contract, the deck and
// circuit analyzers over the checked-in bad-deck corpus (every stable id
// must fire on its regression deck), lint-disable suppression semantics,
// the JSON round-trip, and the gates in CircuitRegistry /
// make_netlist_problem that keep error-severity decks away from the
// simulator. Shipped example decks must lint clean.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/circuit_lint.hpp"
#include "analysis/deck_lint.hpp"
#include "analysis/diagnostic.hpp"
#include "circuits/netlist_problem.hpp"
#include "circuits/registry.hpp"
#include "spice/netlist_parser.hpp"

using namespace autockt;
using namespace autockt::analysis;

namespace {

std::string source_dir() { return std::string(AUTOCKT_SOURCE_DIR); }

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Sorted list of .cir files directly under `dir`.
std::vector<std::string> deck_files(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".cir") out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The "* expect: <ID>" header every bad-corpus deck carries.
std::string expected_id(const std::string& text) {
  const std::string tag = "* expect: ";
  const auto pos = text.find(tag);
  if (pos == std::string::npos) return "";
  auto end = pos + tag.size();
  std::string id;
  while (end < text.size() && text[end] != '\n' && text[end] != ' ') {
    id.push_back(text[end++]);
  }
  return id;
}

bool has_id(const std::vector<Diagnostic>& diags, const std::string& id) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.id == id; });
}

}  // namespace

TEST(DiagnosticCatalog, IdsAreUniqueAndWellFormed) {
  std::set<std::string> seen;
  for (const auto& def : diagnostic_catalog()) {
    const std::string id = def.id;
    EXPECT_TRUE(seen.insert(id).second) << "duplicate catalog id " << id;
    ASSERT_EQ(id.size(), 5u) << id;
    EXPECT_EQ(id.substr(0, 2), "AC") << id;
    EXPECT_NE(std::string(def.summary), "") << id;
    EXPECT_EQ(find_diagnostic_def(id), &def);
  }
  EXPECT_EQ(find_diagnostic_def("AC999"), nullptr);
  EXPECT_GE(seen.size(), 15u);
}

TEST(DiagnosticCatalog, SeverityNamesRoundTrip) {
  for (Severity s : {Severity::Note, Severity::Warning, Severity::Error}) {
    Severity back = Severity::Note;
    ASSERT_TRUE(severity_from_name(severity_name(s), &back));
    EXPECT_EQ(back, s);
  }
  Severity out;
  EXPECT_FALSE(severity_from_name("fatal", &out));
}

// Every deck in tests/decks/bad/ must report the diagnostic id named in its
// "* expect:" header, at the severity the catalog assigns — the regression
// corpus is what makes the ids a stable contract.
TEST(DeckLint, BadCorpusFiresExpectedIds) {
  const auto decks = deck_files(source_dir() + "/tests/decks/bad");
  ASSERT_GE(decks.size(), 18u);
  std::set<std::string> ids_covered;
  for (const auto& path : decks) {
    const std::string text = read_file(path);
    const std::string id = expected_id(text);
    ASSERT_NE(id, "") << path << " lacks an '* expect: <ID>' header";
    const auto diags = lint_deck_text(text);
    EXPECT_TRUE(has_id(diags, id))
        << path << " did not report " << id << ":\n"
        << render_diagnostics_text(diags, path);
    for (const auto& d : diags) {
      const DiagnosticDef* def = find_diagnostic_def(d.id);
      ASSERT_NE(def, nullptr) << d.id << " not in catalog (" << path << ")";
      EXPECT_EQ(d.severity, def->severity) << d.id << " in " << path;
    }
    ids_covered.insert(id);
  }
  // The acceptance bar: at least 10 distinct ids exercised by the corpus.
  EXPECT_GE(ids_covered.size(), 10u);
}

TEST(DeckLint, CleanDeckHasZeroDiagnostics) {
  const auto diags = lint_deck_text(
      ".param rr 1k 2k 4\n"
      ".spec gain_vv geq 0.3 0.7 0.5\n"
      ".measure gain_vv gain\n"
      "v1 in 0 dc 1 ac 1\n"
      "r1 in out {rr}\n"
      "r2 out 0 1k\n"
      ".ac out 1k 1g\n"
      ".end\n");
  EXPECT_TRUE(diags.empty()) << render_diagnostics_text(diags, "clean");
}

TEST(DeckLint, ShippedDecksLintClean) {
  for (const auto& path : deck_files(source_dir() + "/examples/decks")) {
    const auto diags = lint_deck_text(read_file(path));
    EXPECT_TRUE(diags.empty()) << render_diagnostics_text(diags, path);
  }
}

TEST(DeckLint, LintDisableSuppressesWarnings) {
  const std::string path = source_dir() + "/tests/decks/lint_disable_clean.cir";
  const std::string text = read_file(path);
  const auto diags = lint_deck_text(text);
  EXPECT_TRUE(diags.empty()) << render_diagnostics_text(diags, path);

  // The same deck without the suppression comment reports AC201.
  const std::string stripped = text.substr(text.find('\n') + 1);
  EXPECT_TRUE(has_id(lint_deck_text(stripped), "AC201"));
}

TEST(DeckLint, ErrorsAreNotSuppressible) {
  // AC101 (no ground) is error severity: the lint-disable must not hide it,
  // and the unknown-id path must flag a bogus suppression as AC003.
  const auto diags = lint_deck_text(
      "* lint-disable AC101 AC999\n"
      "v1 a b dc 1\n"
      "r1 a b 1k\n"
      ".end\n");
  EXPECT_TRUE(has_id(diags, "AC101"));
  EXPECT_TRUE(has_id(diags, "AC003"));
  EXPECT_TRUE(has_errors(diags));
}

TEST(DeckLint, SyntaxErrorCarriesLocation) {
  const auto diags = lint_deck_text(
      "v1 in 0 dc 1\n"
      ".param w\n"
      ".end\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].id, "AC001");
  EXPECT_EQ(diags[0].severity, Severity::Error);
  EXPECT_EQ(diags[0].line, 2u);
}

TEST(ParserErrors, CarryLineAndColumn) {
  const auto deck = spice::parse_deck(
      "v1 in 0 dc 1\n"
      "r1 in 0 sparkle\n"
      ".end\n");
  ASSERT_FALSE(deck.ok());
  EXPECT_EQ(deck.error().line, 2u);
  EXPECT_EQ(deck.error().col, 9u);  // 1-based offset of "sparkle"
  EXPECT_NE(deck.error().message.find("col 9"), std::string::npos);
}

TEST(Suppressions, FilterWarningsKeepErrors) {
  std::vector<Diagnostic> diags{
      {"AC201", Severity::Warning, 3, 1, "unused", ""},
      {"AC101", Severity::Error, 0, 0, "no ground", ""},
      {"AC202", Severity::Warning, 4, 1, "degenerate", ""},
  };
  const auto kept = apply_suppressions(std::move(diags), {"AC201", "AC101"});
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].id, "AC101");  // errors survive their own suppression
  EXPECT_EQ(kept[1].id, "AC202");
}

TEST(DiagnosticJson, RoundTripsExactly) {
  std::vector<Diagnostic> diags{
      {"AC102", Severity::Error, 7, 4,
       "node 'x' has no DC path to ground", "add a resistive path"},
      {"AC201", Severity::Warning, 2, 1,
       ".param 'w \"quoted\"' is never referenced", ""},
  };
  const std::string json = render_diagnostics_json(diags, "some/deck.cir");
  std::string source;
  const auto parsed = parse_diagnostics_json(json, &source);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(source, "some/deck.cir");
  EXPECT_EQ(*parsed, diags);
}

TEST(DiagnosticJson, RejectsMalformedInput) {
  EXPECT_FALSE(parse_diagnostics_json("not json").ok());
  EXPECT_FALSE(parse_diagnostics_json("{\"diagnostics\": 3}").ok());
}

// Circuit-level analyzers run on decks through lint_deck: each structural
// error id names the offending element's deck line.
TEST(CircuitLint, TopologyFindingsCarryDeckLines) {
  const auto diags = lint_deck_text(
      "v1 a 0 dc 1\n"
      "v2 a 0 dc 2\n"
      ".end\n");
  ASSERT_TRUE(has_id(diags, "AC103"));
  for (const auto& d : diags) {
    if (d.id == "AC103") {
      EXPECT_GT(d.line, 0u);
    }
  }
}

TEST(Registry, RejectsErrorDecksBeforeSimulation) {
  // A complete sizing scenario (parses, has .param/.spec) whose only
  // defect is structural: the registry's lint gate must reject it.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "autockt_lint_bad").string();
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/singular.cir");
    out << ".param rr 1k 2k 4\n"
           ".spec gain_vv geq 0.3 0.7 0.5\n"
           ".measure gain_vv gain\n"
           "v1 vdd 0 dc 1 ac 1\n"
           "r1 vdd out {rr}\n"
           "b1 out s 0.6\n"
           ".ac out 1k 1g\n"
           ".end\n";
  }
  circuits::CircuitRegistry reg;
  const auto added = reg.add_deck_file(dir + "/singular.cir");
  ASSERT_FALSE(added.ok());
  EXPECT_NE(added.error().message.find("AC108"), std::string::npos);
  EXPECT_FALSE(reg.has("singular"));
  std::filesystem::remove_all(dir);
}

TEST(Registry, CollectsWarningReportsForRegisteredDecks) {
  // A deck with a warning-only finding registers fine and surfaces the
  // finding through lint_reports().
  const std::string dir =
      (std::filesystem::temp_directory_path() / "autockt_lint_warn").string();
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/warny.cir");
    out << ".param rr 1k 2k 4\n"
           ".param unused 1 2 3\n"
           ".spec gain_vv geq 0.3 0.7 0.5\n"
           ".measure gain_vv gain\n"
           "v1 in 0 dc 1 ac 1\n"
           "r1 in out {rr}\n"
           "r2 out 0 1k\n"
           ".ac out 1k 1g\n"
           ".end\n";
  }
  circuits::CircuitRegistry reg;
  const auto added = reg.add_deck_file(dir + "/warny.cir");
  ASSERT_TRUE(added.ok()) << added.error().message;
  ASSERT_EQ(reg.lint_reports().count("warny"), 1u);
  EXPECT_TRUE(has_id(reg.lint_reports().at("warny"), "AC201"));
  std::filesystem::remove_all(dir);
}

TEST(Registry, AddDeckDirIsDeterministic) {
  const std::string dir = source_dir() + "/examples/decks";
  circuits::CircuitRegistry a;
  circuits::CircuitRegistry b;
  const auto names_a = a.add_deck_dir(dir);
  const auto names_b = b.add_deck_dir(dir);
  ASSERT_TRUE(names_a.ok());
  ASSERT_TRUE(names_b.ok());
  EXPECT_EQ(*names_a, *names_b);
  EXPECT_TRUE(std::is_sorted(names_a->begin(), names_a->end()));
  EXPECT_EQ(names_a->size(), deck_files(dir).size());
}

TEST(NetlistProblem, PreflightRejectsErrorDecks) {
  // Structurally singular but otherwise a complete sizing scenario: the
  // bias probe's sense node s has an empty MNA row (AC108), so the
  // preflight must refuse before any Newton iteration.
  const auto problem = circuits::make_netlist_problem_from_text(
      ".param rr 1k 2k 4\n"
      ".spec gain_vv geq 0.3 0.7 0.5\n"
      ".measure gain_vv gain\n"
      "v1 vdd 0 dc 1 ac 1\n"
      "r1 vdd out {rr}\n"
      "b1 out s 0.6\n"
      ".ac out 1k 1g\n"
      ".end\n",
      "bad");
  ASSERT_FALSE(problem.ok());
  EXPECT_NE(problem.error().message.find("AC108"), std::string::npos);
}
