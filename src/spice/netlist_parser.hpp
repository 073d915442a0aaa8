#pragma once
// SPICE-dialect netlist parser: lets users drive the simulator — and define
// whole sizing problems — from text decks instead of the C++ builder API
// (see examples/netlist_cli.cpp, examples/netlist_train.cpp and
// circuits/netlist_problem.hpp).
//
// Supported grammar (case-insensitive keywords, '*' comments, one element
// per line, engineering suffixes f p n u m k meg g t on all numbers):
//
//   .title <anything>
//   .card ptm45 | finfet16          default technology card for M devices
//   V<name> n+ n- dc <v> [ac <mag>] [step <v0> <v1> <t0> <trise>]
//   I<name> n+ n- dc <i> [ac <mag>] [step <i0> <i1> <t0> <trise>]
//   R<name> n1 n2 <ohms>
//   C<name> n1 n2 <farads>
//   G<name> out+ out- in+ in- <gm>  voltage-controlled current source
//   M<name> d g s b nmos|pmos w=<m> l=<m> [mult=<int>] [card=<name>]
//   B<name> bias sense <target_v>   ideal bias servo (nullor)
//   .nodeset <node> <volts>         initial DC guess for a node
//   .op                             request a DC operating point
//   .ac <probe_node> <f_start> <f_stop> [points_per_decade]
//   .tran <probe_node> <t_stop> <dt>
//   .noise <probe_node> <f_start> <f_stop>
//   .end
//
// Sizing dialect (turns a deck into a data-defined sizing scenario; see
// docs/DESIGN.md section 9):
//
//   .param <name> <lo> <hi> <steps> [log]
//       Declares a design variable swept over a `steps`-point grid from lo
//       to hi (linearly, or log-spaced with the `log` flag). Any numeric
//       value in an element line may reference it as {name}; an engineering
//       suffix may follow the closing brace, e.g. w={wp}u.
//   .spec <name> geq|leq|min <sample_lo> <sample_hi> <norm> [fail=<v>]
//       Declares a target specification: its sense, the target sampling
//       range used for training/deployment, the fixed normalization
//       reference, and optionally the value substituted when the
//       measurement cannot be produced.
//   .measure <spec_name> gain|f3db|ugbw|phase_margin|settling|noise
//   .measure <spec_name> supply_current <vsource_name>
//       Binds a spec to an extraction: gain/f3db/ugbw/phase_margin read the
//       first .ac sweep, settling the first .tran, noise the first .noise,
//       and supply_current the DC branch current magnitude of a named V
//       source. Every .spec needs exactly one .measure and vice versa.
//
// Node names are arbitrary identifiers; "0" and "gnd" are ground. Nodes are
// created on first use.

#include <cstddef>
#include <string>
#include <vector>

#include "spice/ac.hpp"
#include "spice/circuit.hpp"
#include "spice/noise.hpp"
#include "spice/transient.hpp"
#include "util/expected.hpp"

namespace autockt::spice {

struct AcRequest {
  std::string probe;
  AcOptions options;
};

struct TranRequest {
  std::string probe;
  TranOptions options;
};

struct NoiseRequest {
  std::string probe;
  NoiseOptions options;
};

/// A parsed deck instantiated at concrete design-variable values: the
/// circuit plus the analyses the deck requested.
struct ParsedNetlist {
  Circuit circuit;
  std::string title;
  bool want_op = false;
  std::vector<AcRequest> ac;
  std::vector<TranRequest> tran;
  std::vector<NoiseRequest> noise;
  /// .nodeset entries, resolved to node ids (see initial_node_voltages()).
  std::vector<std::pair<NodeId, double>> nodesets;

  /// Initial-guess vector for spice::DcOptions built from the .nodeset
  /// directives (zeros elsewhere).
  std::vector<double> initial_node_voltages() const;
};

/// A `.param` design-variable declaration.
struct DeckParam {
  std::string name;
  double lo = 0.0;
  double hi = 0.0;
  int steps = 1;
  bool log_scale = false;
  std::size_t line_no = 0;

  /// Physical value at grid index idx in [0, steps).
  double value_at(int idx) const;
  /// Grid-centre value — the default used when a deck is simulated outside
  /// a sizing problem (netlist_cli on a .param-carrying deck).
  double default_value() const { return value_at(steps / 2); }
};

/// A `.spec` target-specification declaration. Sense mirrors
/// circuits::SpecSense without depending on the circuits layer.
struct DeckSpec {
  std::string name;
  enum class Sense { GreaterEq, LessEq, Minimize } sense = Sense::GreaterEq;
  double sample_lo = 0.0;
  double sample_hi = 0.0;
  double norm = 1.0;
  double fail_value = 0.0;
  bool has_fail = false;  // explicit fail= given (else a sense default)
  std::size_t line_no = 0;
};

/// A `.measure` binding from a spec name to an extraction kind.
struct DeckMeasure {
  std::string spec;
  enum class Kind {
    Gain,
    F3db,
    Ugbw,
    PhaseMargin,
    Settling,
    Noise,
    SupplyCurrent
  } kind = Kind::Gain;
  std::string source;  // SupplyCurrent: the V-source device name
  std::size_t line_no = 0;
};

/// A parsed deck before instantiation: the element/analysis lines with
/// unresolved {param} references, plus the sizing declarations. One deck
/// instantiates into many circuits — one per design point — which is what
/// lets a text file define a whole sizing problem (see
/// circuits::make_netlist_problem).
struct NetlistDeck {
  std::string title;
  std::vector<DeckParam> params;
  std::vector<DeckSpec> specs;
  std::vector<DeckMeasure> measures;

  /// Raw tokenized line retained for instantiation; `no` is the 1-based
  /// line number in the original text and `cols` the 1-based column of each
  /// token, kept so instantiation errors name the offending position.
  struct RawLine {
    std::size_t no = 0;
    std::vector<std::string> tokens;
    std::vector<std::size_t> cols;
  };
  std::vector<RawLine> lines;

  /// Diagnostic ids named by `* lint-disable <id>...` comments, uppercased
  /// in source order (see analysis::apply_suppressions; error-severity
  /// diagnostics are never suppressible).
  std::vector<std::string> lint_disables;

  bool has_sizing() const { return !params.empty() || !specs.empty(); }
  /// Index of a param by name; -1 when absent.
  int param_index(const std::string& name) const;

  /// Build the circuit and analysis requests at the given design-variable
  /// values (aligned with `params`). Every {name} reference is substituted
  /// before element parsing; errors carry the original line number.
  util::Expected<ParsedNetlist> instantiate(
      const std::vector<double>& values) const;
  /// Instantiate at every param's grid-centre default.
  util::Expected<ParsedNetlist> instantiate_default() const;
};

/// Parse a numeric literal with optional engineering suffix ("2.2k",
/// "0.5u", "10meg", "1e-12"). Returns an error naming the bad token; a
/// value that is not finite ("nan", "inf", "1e400") is an error too.
util::Expected<double> parse_spice_number(const std::string& token);

/// Parse a whole deck into its AST without instantiating. Errors carry the
/// line number and offending text. The default instantiation is validated
/// eagerly, so a malformed element line fails here, not at first use.
util::Expected<NetlistDeck> parse_deck(const std::string& text);

/// Syntax-only variant of parse_deck: tokenizes, collects declarations and
/// raw lines but skips the eager default instantiation, the sizing
/// cross-validation and the log-grid bound check. This is the entry point
/// for static analysis (analysis::lint_deck_text), which must be able to
/// inspect decks parse_deck would reject and report EVERY defect instead of
/// the first. Errors are limited to genuinely unreadable lines.
util::Expected<NetlistDeck> parse_deck_syntax(const std::string& text);

/// Compatibility wrapper: parse and instantiate at default param values.
util::Expected<ParsedNetlist> parse_netlist(const std::string& text);

}  // namespace autockt::spice
