#include "circuits/netlist_problem.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/deck_lint.hpp"
#include "circuits/lanes.hpp"
#include "spice/transient.hpp"

namespace autockt::circuits {

namespace {

using spice::DeckMeasure;
using spice::DeckSpec;

SpecSense sense_of(DeckSpec::Sense s) {
  switch (s) {
    case DeckSpec::Sense::GreaterEq:
      return SpecSense::GreaterEq;
    case DeckSpec::Sense::LessEq:
      return SpecSense::LessEq;
    case DeckSpec::Sense::Minimize:
      return SpecSense::Minimize;
  }
  return SpecSense::GreaterEq;
}

/// Compiled measurement plan: which analyses the deck's measures need, and
/// the per-spec extraction (aligned with the problem's spec order).
struct MeasurePlan {
  bool need_ac = false;
  bool need_tran = false;
  bool need_noise = false;
  struct Extraction {
    DeckMeasure::Kind kind = DeckMeasure::Kind::Gain;
    std::string source;  // SupplyCurrent device name
    double fail_value = 0.0;
  };
  std::vector<Extraction> per_spec;
};

spice::NodeId probe_node(const spice::Circuit& ckt, const std::string& name) {
  if (name == "0" || name == "gnd") return spice::kGround;
  return ckt.node(name);
}

/// Structural fingerprint of a circuit: each device's kind and terminal
/// nodes, in device order. Circuits with equal fingerprints stamp the same
/// matrix positions, so one workspace serves them all.
std::string topology_fingerprint(const spice::Circuit& ckt) {
  std::string out;
  for (const auto& dev : ckt.devices()) {
    const spice::DeviceTopology topo = dev->topology();
    out += std::to_string(static_cast<int>(topo.kind));
    for (spice::NodeId n : topo.nodes) out += ',' + std::to_string(n);
    out += ';';
  }
  return out;
}

}  // namespace

std::vector<ParamDef> netlist_param_defs(const spice::NetlistDeck& deck) {
  std::vector<ParamDef> defs;
  defs.reserve(deck.params.size());
  for (const spice::DeckParam& p : deck.params) {
    ParamDef def;
    def.name = p.name;
    if (p.log_scale) {
      // Log grids live in index space; DeckParam::value_at maps an index to
      // its physical value inside the evaluator.
      def.start = 0.0;
      def.end = static_cast<double>(p.steps - 1);
      def.step = 1.0;
    } else {
      def.start = p.lo;
      def.end = p.hi;
      def.step = p.steps > 1
                     ? (p.hi - p.lo) / static_cast<double>(p.steps - 1)
                     : 0.0;
    }
    defs.push_back(std::move(def));
  }
  return defs;
}

util::Expected<SizingProblem> make_netlist_problem(
    const spice::NetlistDeck& deck, const std::string& name,
    const ProblemOptions& options) {
  if (deck.params.empty()) {
    return util::Error{"deck '" + name +
                       "' declares no .param design variables"};
  }
  if (deck.specs.empty()) {
    return util::Error{"deck '" + name + "' declares no .spec targets"};
  }

  // Static-analysis preflight: a deck with error-severity findings (floating
  // nodes, source loops, structural singularity, unsatisfiable measures...)
  // never reaches the simulator — it would produce garbage measurements the
  // RL agent happily optimizes against. Warnings are reported by the
  // registry and the netlist_lint CLI, not here.
  if (auto diags = analysis::lint_deck(deck); analysis::has_errors(diags)) {
    return util::Error{"deck '" + name + "' fails static analysis:\n" +
                       analysis::render_diagnostics_text(diags, name)};
  }

  SizingProblem prob;
  prob.name = name;
  prob.description = deck.title.empty()
                         ? "deck-defined sizing scenario"
                         : deck.title;
  prob.params = netlist_param_defs(deck);

  MeasurePlan plan;
  plan.per_spec.reserve(deck.specs.size());
  for (const DeckSpec& s : deck.specs) {
    SpecDef def;
    def.name = s.name;
    def.sense = sense_of(s.sense);
    def.sample_lo = s.sample_lo;
    def.sample_hi = s.sample_hi;
    def.norm_const = s.norm;
    def.fail_value = s.fail_value;
    prob.specs.push_back(std::move(def));

    const DeckMeasure* bound = nullptr;
    for (const DeckMeasure& m : deck.measures) {
      if (m.spec == s.name) bound = &m;
    }
    if (bound == nullptr) {
      // parse_deck enforces the pairing; guard against hand-built decks.
      return util::Error{"spec '" + s.name + "' has no .measure binding"};
    }
    MeasurePlan::Extraction ex;
    ex.kind = bound->kind;
    ex.source = bound->source;
    ex.fail_value = s.fail_value;
    plan.per_spec.push_back(std::move(ex));
    switch (bound->kind) {
      case DeckMeasure::Kind::Gain:
      case DeckMeasure::Kind::F3db:
      case DeckMeasure::Kind::Ugbw:
      case DeckMeasure::Kind::PhaseMargin:
        plan.need_ac = true;
        break;
      case DeckMeasure::Kind::Settling:
        plan.need_tran = true;
        break;
      case DeckMeasure::Kind::Noise:
        plan.need_noise = true;
        break;
      case DeckMeasure::Kind::SupplyCurrent:
        break;
    }
  }

  // Validate the deck instantiates and carries the analyses the plan needs
  // (parse_deck already checked; re-check so decks assembled in code fail
  // here, with a problem-level message, rather than at first evaluation).
  std::string ws_key = "netlist/" + name + "/";
  {
    auto inst = deck.instantiate_default();
    if (!inst.ok()) {
      return util::Error{"deck '" + name + "': " + inst.error().message};
    }
    ws_key += topology_fingerprint(inst->circuit);
    if (plan.need_ac && inst->ac.empty()) {
      return util::Error{"deck '" + name + "' needs a .ac analysis"};
    }
    if (plan.need_tran && inst->tran.empty()) {
      return util::Error{"deck '" + name + "' needs a .tran analysis"};
    }
    if (plan.need_noise && inst->noise.empty()) {
      return util::Error{"deck '" + name + "' needs a .noise analysis"};
    }
  }

  // The evaluator: instantiate the deck at every point of the batch and run
  // exactly the analyses the measures need as lanes of one pipeline
  // (circuits/lanes.hpp) through one per-(thread, topology) workspace, so
  // repeated evaluations pay no symbolic-factorization cost. Transient
  // measures are per-lane tails; a single point is a one-lane batch. The
  // workspace key carries the deck's structural fingerprint: two decks
  // built under one name must not share a workspace.
  auto deck_copy = std::make_shared<const spice::NetlistDeck>(deck);
  auto eval_batch = [deck_copy, plan, ws_key](
                        const std::vector<ParamVector>& points,
                        const std::vector<eval::OpHint*>& hints)
      -> std::vector<util::Expected<SpecVector>> {
    using namespace spice;
    const std::size_t K = points.size();
    std::vector<util::Expected<SpecVector>> results(K, SpecVector{});
    std::vector<std::optional<ParsedNetlist>> insts(K);
    std::vector<std::size_t> live;
    std::vector<const Circuit*> ckts;
    std::vector<DcOptions> dc;
    std::vector<eval::OpHint*> live_hints;
    for (std::size_t l = 0; l < K; ++l) {
      std::vector<double> values(deck_copy->params.size());
      for (std::size_t p = 0; p < values.size(); ++p) {
        values[p] = deck_copy->params[p].value_at(points[l][p]);
      }
      auto inst = deck_copy->instantiate(values);
      if (!inst.ok()) {
        results[l] = inst.error();
        continue;
      }
      const ParsedNetlist& lane = insts[l].emplace(std::move(*inst));
      live.push_back(l);
      ckts.push_back(&lane.circuit);
      dc.emplace_back().initial_node_v = lane.initial_node_voltages();
      live_hints.push_back(l < hints.size() ? hints[l] : nullptr);
    }
    if (live.empty()) return results;

    const ParsedNetlist& first = *insts[live.front()];
    SimWorkspace& ws = workspace_for(first.circuit, ws_key);
    LanePlan lanes;
    if (plan.need_ac) {
      lanes.ac = first.ac.front().options;
      lanes.ac_probe = probe_node(first.circuit, first.ac.front().probe);
    }
    if (plan.need_noise) {
      lanes.noise = first.noise.front().options;
      lanes.noise_probe =
          probe_node(first.circuit, first.noise.front().probe);
    }
    auto specs = run_lanes<SpecVector>(
        ckts, std::move(dc), live_hints, lanes, ws,
        [&](std::size_t s,
            const LaneResult& lane) -> util::Expected<SpecVector> {
          const ParsedNetlist& inst = *insts[live[s]];
          const Circuit& ckt = inst.circuit;
          const AcMeasurements& acm = lane.ac;
          SettlingResult settle;
          if (plan.need_tran) {
            TranOptions o = inst.tran.front().options;
            o.workspace = &ws;
            auto tran = transient(
                ckt, lane.op, {probe_node(ckt, inst.tran.front().probe)}, o);
            if (!tran.ok()) return tran.error();
            settle = measure_settling(tran->time, tran->waveforms[0]);
          }

          SpecVector out(plan.per_spec.size(), 0.0);
          for (std::size_t i = 0; i < plan.per_spec.size(); ++i) {
            const MeasurePlan::Extraction& ex = plan.per_spec[i];
            switch (ex.kind) {
              case DeckMeasure::Kind::Gain:
                out[i] = acm.dc_gain;
                break;
              case DeckMeasure::Kind::F3db:
                out[i] = acm.f3db_found ? acm.f3db : ex.fail_value;
                break;
              case DeckMeasure::Kind::Ugbw:
                out[i] = acm.ugbw_found ? acm.ugbw : ex.fail_value;
                break;
              case DeckMeasure::Kind::PhaseMargin:
                out[i] = acm.ugbw_found ? acm.phase_margin_deg : ex.fail_value;
                break;
              case DeckMeasure::Kind::Settling:
                out[i] = settle.settled ? settle.time : ex.fail_value;
                break;
              case DeckMeasure::Kind::Noise:
                out[i] = lane.noise_vrms;
                break;
              case DeckMeasure::Kind::SupplyCurrent: {
                const Device* dev = ckt.find(ex.source);
                if (dev == nullptr || dev->branch_count() == 0) {
                  return util::Error{"supply_current: no branch device '" +
                                     ex.source + "'"};
                }
                out[i] = std::fabs(lane.op.branch_i[dev->first_branch()]);
                break;
              }
            }
          }
          return out;
        });
    for (std::size_t s = 0; s < live.size(); ++s) {
      results[live[s]] = std::move(specs[s]);
    }
    return results;
  };

  // Fingerprint for the persistent eval cache: grid + specs + the raw deck
  // text, so editing any card line (device value, analysis point, measure)
  // retires the old cache instead of replaying stale results against the
  // changed circuit.
  std::vector<std::string> deck_lines;
  deck_lines.reserve(deck.lines.size());
  for (const auto& line : deck.lines) {
    std::string joined;
    for (const std::string& tok : line.tokens) {
      if (!joined.empty()) joined += ' ';
      joined += tok;
    }
    deck_lines.push_back(std::move(joined));
  }
  const std::uint64_t fingerprint =
      problem_fingerprint(prob.name, prob.params, prob.specs, deck_lines);

  try {
    prob.backend = make_standard_backend(std::move(eval_batch),
                                         name + "_sim", options, fingerprint);
  } catch (const std::runtime_error& e) {
    // DiskLogStore::open refused the cache directory (fingerprint
    // mismatch, unwritable path); surface it as a deck-level error.
    return util::Error{"deck '" + name + "': " + std::string(e.what())};
  }
  try {
    prob.validate();
  } catch (const std::invalid_argument& e) {
    return util::Error{"deck '" + name + "': " + std::string(e.what())};
  }
  return prob;
}

util::Expected<SizingProblem> make_netlist_problem_from_text(
    const std::string& deck_text, const std::string& name,
    const ProblemOptions& options) {
  auto deck = spice::parse_deck(deck_text);
  if (!deck.ok()) return deck.error();
  return make_netlist_problem(*deck, name, options);
}

util::Expected<spice::NetlistDeck> load_deck(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Error{"cannot open deck '" + path + "'"};
  std::ostringstream buf;
  buf << in.rdbuf();
  auto deck = spice::parse_deck(buf.str());
  if (!deck.ok()) {
    return util::Error{path + ": " + deck.error().message,
                       deck.error().code};
  }
  return deck;
}

std::string deck_scenario_name(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

util::Expected<SizingProblem> make_netlist_problem_from_file(
    const std::string& path, const ProblemOptions& options) {
  auto deck = load_deck(path);
  if (!deck.ok()) return deck.error();
  return make_netlist_problem(*deck, deck_scenario_name(path), options);
}

}  // namespace autockt::circuits
