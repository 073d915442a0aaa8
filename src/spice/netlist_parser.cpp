#include "spice/netlist_parser.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <sstream>

#include "util/fmt.hpp"

namespace autockt::spice {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// One source line split into whitespace-separated tokens plus the 1-based
/// column each token starts at (for located errors and diagnostics).
struct TokenizedLine {
  std::vector<std::string> tokens;
  std::vector<std::size_t> cols;
};

TokenizedLine tokenize(const std::string& line) {
  TokenizedLine out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i >= line.size() || line[i] == '*') break;  // trailing comment
    const std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    out.tokens.push_back(line.substr(start, i - start));
    out.cols.push_back(start + 1);
  }
  return out;
}

util::Error at_line(std::size_t line_no, const std::string& message) {
  util::Error e;
  e.message = "line " + std::to_string(line_no) + ": " + message;
  e.code = 10;
  e.line = line_no;
  return e;
}

/// Located variant: names line AND column in the message, and carries both
/// as structured fields (util::Error::line/col).
util::Error at(std::size_t line_no, std::size_t col,
               const std::string& message) {
  util::Error e;
  e.message = "line " + std::to_string(line_no) + ", col " +
              std::to_string(col) + ": " + message;
  e.code = 10;
  e.line = line_no;
  e.col = col;
  return e;
}

/// If a line carries a comment ('*' opening a token), record any
/// `* lint-disable <id>...` ids it names (uppercased, source order).
void scan_lint_disable(const std::string& line,
                       std::vector<std::string>& out) {
  std::size_t pos = std::string::npos;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '*' &&
        (i == 0 || std::isspace(static_cast<unsigned char>(line[i - 1])))) {
      pos = i;
      break;
    }
  }
  if (pos == std::string::npos) return;
  std::istringstream stream(line.substr(pos + 1));
  std::string word;
  if (!(stream >> word) || lower(word) != "lint-disable") return;
  while (stream >> word) {
    std::transform(word.begin(), word.end(), word.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    out.push_back(word);
  }
}

/// Resolve a node token, creating the node on first use.
NodeId node_of(Circuit& ckt, const std::string& name) {
  const std::string n = lower(name);
  if (n == "0" || n == "gnd") return kGround;
  if (!ckt.has_node(n)) return ckt.add_node(n);
  return ckt.node(n);
}

/// key=value option map from trailing tokens.
std::map<std::string, std::string> options_from(
    const std::vector<std::string>& tokens, std::size_t first) {
  std::map<std::string, std::string> out;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      out[lower(tokens[i])] = "";
    } else {
      out[lower(tokens[i].substr(0, eq))] = tokens[i].substr(eq + 1);
    }
  }
  return out;
}

/// Source tail parser: "dc <v> [ac <mag>] [step v0 v1 t0 trise]".
struct SourceSpec {
  Waveform wave = Waveform::constant(0.0);
  double ac_mag = 0.0;
};

util::Expected<SourceSpec> parse_source_tail(
    const std::vector<std::string>& tokens,
    const std::vector<std::size_t>& cols, std::size_t i,
    std::size_t line_no) {
  SourceSpec spec;
  while (i < tokens.size()) {
    const std::string key = lower(tokens[i]);
    if (key == "dc") {
      if (i + 1 >= tokens.size()) {
        return at(line_no, cols[i], "dc needs a value");
      }
      auto v = parse_spice_number(tokens[i + 1]);
      if (!v.ok()) return at(line_no, cols[i + 1], v.error().message);
      spec.wave = Waveform::constant(*v);
      i += 2;
    } else if (key == "ac") {
      if (i + 1 >= tokens.size()) {
        return at(line_no, cols[i], "ac needs a value");
      }
      auto v = parse_spice_number(tokens[i + 1]);
      if (!v.ok()) return at(line_no, cols[i + 1], v.error().message);
      spec.ac_mag = *v;
      i += 2;
    } else if (key == "step") {
      if (i + 4 >= tokens.size()) {
        return at(line_no, cols[i], "step needs v0 v1 t0 trise");
      }
      double vals[4];
      for (int k = 0; k < 4; ++k) {
        const std::size_t j = i + 1 + static_cast<std::size_t>(k);
        auto v = parse_spice_number(tokens[j]);
        if (!v.ok()) return at(line_no, cols[j], v.error().message);
        vals[k] = *v;
      }
      spec.wave = Waveform::step(vals[0], vals[1], vals[2], vals[3]);
      i += 5;
    } else {
      // Bare number == dc value (SPICE shorthand "V1 a 0 1.2").
      auto v = parse_spice_number(tokens[i]);
      if (!v.ok()) {
        return at(line_no, cols[i], "unexpected token '" + tokens[i] + "'");
      }
      spec.wave = Waveform::constant(*v);
      ++i;
    }
  }
  return spec;
}

/// Map a sense keyword of a .spec declaration.
util::Expected<DeckSpec::Sense> parse_sense(const std::string& token,
                                            std::size_t line_no,
                                            std::size_t col) {
  const std::string s = lower(token);
  if (s == "geq") return DeckSpec::Sense::GreaterEq;
  if (s == "leq") return DeckSpec::Sense::LessEq;
  if (s == "min") return DeckSpec::Sense::Minimize;
  return at(line_no, col,
            "unknown spec sense '" + token + "' (want geq, leq or min)");
}

/// Map a measurement keyword of a .measure declaration.
util::Expected<DeckMeasure::Kind> parse_measure_kind(const std::string& token,
                                                     std::size_t line_no,
                                                     std::size_t col) {
  const std::string s = lower(token);
  if (s == "gain") return DeckMeasure::Kind::Gain;
  if (s == "f3db") return DeckMeasure::Kind::F3db;
  if (s == "ugbw") return DeckMeasure::Kind::Ugbw;
  if (s == "phase_margin") return DeckMeasure::Kind::PhaseMargin;
  if (s == "settling") return DeckMeasure::Kind::Settling;
  if (s == "noise") return DeckMeasure::Kind::Noise;
  if (s == "supply_current") return DeckMeasure::Kind::SupplyCurrent;
  return at(line_no, col,
            "unknown measure kind '" + token +
                "' (want gain, f3db, ugbw, phase_margin, "
                "settling, noise or supply_current)");
}

}  // namespace

std::vector<double> ParsedNetlist::initial_node_voltages() const {
  std::vector<double> out(circuit.num_nodes(), 0.0);
  for (const auto& [node, volts] : nodesets) {
    if (node != kGround && node < out.size()) out[node] = volts;
  }
  return out;
}

double DeckParam::value_at(int idx) const {
  if (steps <= 1) return lo;
  const double frac =
      static_cast<double>(idx) / static_cast<double>(steps - 1);
  if (log_scale) return lo * std::pow(hi / lo, frac);
  return lo + (hi - lo) * frac;
}

int NetlistDeck::param_index(const std::string& name) const {
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

util::Expected<double> parse_spice_number(const std::string& token) {
  if (token.empty()) return util::Error{"empty number", 11};
  const std::string t = lower(token);
  char* end = nullptr;
  const double base = std::strtod(t.c_str(), &end);
  if (end == t.c_str()) {
    return util::Error{"'" + token + "' is not a number", 11};
  }
  const std::string suffix(end);
  double scale = 1.0;
  if (suffix.empty()) {
    scale = 1.0;
  } else if (suffix == "t") {
    scale = 1e12;
  } else if (suffix == "g") {
    scale = 1e9;
  } else if (suffix == "meg") {
    scale = 1e6;
  } else if (suffix == "k") {
    scale = 1e3;
  } else if (suffix == "m") {
    scale = 1e-3;
  } else if (suffix == "u") {
    scale = 1e-6;
  } else if (suffix == "n") {
    scale = 1e-9;
  } else if (suffix == "p") {
    scale = 1e-12;
  } else if (suffix == "f") {
    scale = 1e-15;
  } else {
    return util::Error{
        "'" + token + "' has an unknown suffix '" + suffix + "'", 11};
  }
  // NaN, infinities and overflow (1e400, 1e300t) would reach the
  // simulator as a NaN stamp.
  const double value = base * scale;
  if (!std::isfinite(value)) {
    return util::Error{"'" + token + "' is not a finite number", 11};
  }
  return value;
}

namespace {

/// Substitute every {param} reference in `token` with the value's %.17g
/// rendering (the engineering-suffix path then scales it exactly as it
/// would a literal, so "w={wp}u" behaves like "w=3.2u").
util::Expected<std::string> substitute_params(
    const std::string& token, const NetlistDeck& deck,
    const std::vector<double>& values, std::size_t line_no,
    std::size_t col) {
  std::string out = token;
  std::size_t open;
  while ((open = out.find('{')) != std::string::npos) {
    const std::size_t close = out.find('}', open);
    if (close == std::string::npos) {
      return at(line_no, col, "unterminated '{' in '" + token + "'");
    }
    const std::string name = lower(out.substr(open + 1, close - open - 1));
    const int p = deck.param_index(name);
    if (p < 0) {
      return at(line_no, col, "unknown design variable '{" + name +
                                  "}' in '" + token + "'");
    }
    out = out.substr(0, open) +
          util::format_g17(values[static_cast<std::size_t>(p)]) +
          out.substr(close + 1);
  }
  return out;
}

}  // namespace

util::Expected<ParsedNetlist> NetlistDeck::instantiate(
    const std::vector<double>& values) const {
  if (values.size() != params.size()) {
    return util::Error{"instantiate: " + std::to_string(values.size()) +
                           " values for " + std::to_string(params.size()) +
                           " design variables",
                       10};
  }
  ParsedNetlist out;
  out.title = title;
  TechCard default_card = TechCard::ptm45();

  std::vector<std::string> tokens;
  for (const RawLine& raw : lines) {
    const std::size_t line_no = raw.no;
    // 1-based column per token, padded with 0 ("unknown") for hand-built
    // RawLines that predate column tracking.
    std::vector<std::size_t> cols = raw.cols;
    cols.resize(raw.tokens.size(), 0);
    tokens.clear();
    tokens.reserve(raw.tokens.size());
    for (std::size_t i = 0; i < raw.tokens.size(); ++i) {
      auto sub = substitute_params(raw.tokens[i], *this, values, line_no,
                                   cols[i]);
      if (!sub.ok()) return sub.error();
      tokens.push_back(std::move(*sub));
    }
    const std::string head = lower(tokens[0]);
    // Located error for token i; falls back to line-only when the column is
    // unknown (hand-built RawLines).
    const auto err = [&](std::size_t i, const std::string& msg) {
      return i < cols.size() && cols[i] > 0 ? at(line_no, cols[i], msg)
                                            : at_line(line_no, msg);
    };
    // f_start (token 2) and f_stop (token 3) of an .ac or .noise card.
    const auto sweep_error = [&](double f0,
                                 double f1) -> std::optional<util::Error> {
      if (!(std::isfinite(f0) && f0 > 0.0)) {
        return err(2, "f_start '" + tokens[2] + "' must be finite and > 0");
      }
      if (!(std::isfinite(f1) && f1 > f0)) {
        return err(3,
                   "f_stop '" + tokens[3] + "' must be finite and > f_start");
      }
      return std::nullopt;
    };

    // ---- directives ------------------------------------------------------
    if (head[0] == '.') {
      if (head == ".card") {
        if (tokens.size() < 2) return err(0, ".card needs a name");
        const std::string name = lower(tokens[1]);
        if (name == "ptm45") {
          default_card = TechCard::ptm45();
        } else if (name == "finfet16") {
          default_card = TechCard::finfet16();
        } else {
          return err(1, "unknown card '" + tokens[1] + "'");
        }
      } else if (head == ".nodeset") {
        if (tokens.size() < 3) {
          return err(0, ".nodeset needs node and voltage");
        }
        auto v = parse_spice_number(tokens[2]);
        if (!v.ok()) return err(2, v.error().message);
        out.nodesets.emplace_back(node_of(out.circuit, tokens[1]), *v);
      } else if (head == ".op") {
        out.want_op = true;
      } else if (head == ".ac") {
        if (tokens.size() < 4) {
          return err(0, ".ac needs probe f_start f_stop");
        }
        AcRequest req;
        req.probe = lower(tokens[1]);
        auto f0 = parse_spice_number(tokens[2]);
        auto f1 = parse_spice_number(tokens[3]);
        if (!f0.ok()) return err(2, "f_start " + f0.error().message);
        if (!f1.ok()) return err(3, "f_stop " + f1.error().message);
        if (auto bad = sweep_error(*f0, *f1)) return *bad;
        req.options.f_start = *f0;
        req.options.f_stop = *f1;
        if (tokens.size() > 4) {
          auto ppd = parse_spice_number(tokens[4]);
          if (!ppd.ok()) {
            return err(4, "points per decade " + ppd.error().message);
          }
          if (!(*ppd >= 1.0 && *ppd <= std::numeric_limits<int>::max() &&
                std::floor(*ppd) == *ppd)) {
            return err(4, "points per decade '" + tokens[4] +
                              "' must be a whole number >= 1");
          }
          req.options.points_per_decade = static_cast<int>(*ppd);
        }
        out.ac.push_back(std::move(req));
      } else if (head == ".tran") {
        if (tokens.size() < 4) {
          return err(0, ".tran needs probe t_stop dt");
        }
        TranRequest req;
        req.probe = lower(tokens[1]);
        auto ts = parse_spice_number(tokens[2]);
        auto dt = parse_spice_number(tokens[3]);
        if (!ts.ok()) return err(2, "t_stop " + ts.error().message);
        if (!dt.ok()) return err(3, "dt " + dt.error().message);
        if (!(std::isfinite(*ts) && *ts > 0.0)) {
          return err(2, "t_stop '" + tokens[2] + "' must be finite and > 0");
        }
        if (!(std::isfinite(*dt) && *dt > 0.0 && *dt <= *ts)) {
          return err(3, "dt '" + tokens[3] +
                          "' must be finite, > 0 and <= t_stop");
        }
        req.options.t_stop = *ts;
        req.options.dt = *dt;
        out.tran.push_back(std::move(req));
      } else if (head == ".noise") {
        if (tokens.size() < 4) {
          return err(0, ".noise needs probe f_start f_stop");
        }
        NoiseRequest req;
        req.probe = lower(tokens[1]);
        auto f0 = parse_spice_number(tokens[2]);
        auto f1 = parse_spice_number(tokens[3]);
        if (!f0.ok()) return err(2, "f_start " + f0.error().message);
        if (!f1.ok()) return err(3, "f_stop " + f1.error().message);
        if (auto bad = sweep_error(*f0, *f1)) return *bad;
        req.options.f_start = *f0;
        req.options.f_stop = *f1;
        out.noise.push_back(std::move(req));
      } else {
        return err(0, "unknown directive '" + tokens[0] + "'");
      }
      continue;
    }

    // ---- elements --------------------------------------------------------
    const char kind = head[0];
    const std::string name = lower(tokens[0]);
    switch (kind) {
      case 'r': {
        if (tokens.size() < 4) {
          return err(0, "R needs 2 nodes + value");
        }
        auto v = parse_spice_number(tokens[3]);
        if (!v.ok()) return err(3, v.error().message);
        if (*v <= 0.0) return err(3, "resistance must be positive");
        out.circuit.add<Resistor>(name, node_of(out.circuit, tokens[1]),
                                  node_of(out.circuit, tokens[2]), *v);
        break;
      }
      case 'c': {
        if (tokens.size() < 4) {
          return err(0, "C needs 2 nodes + value");
        }
        auto v = parse_spice_number(tokens[3]);
        if (!v.ok()) return err(3, v.error().message);
        if (*v < 0.0) return err(3, "capacitance must be >= 0");
        out.circuit.add<Capacitor>(name, node_of(out.circuit, tokens[1]),
                                   node_of(out.circuit, tokens[2]), *v);
        break;
      }
      case 'v':
      case 'i': {
        if (tokens.size() < 3) return err(0, "source needs 2 nodes");
        auto spec = parse_source_tail(tokens, cols, 3, line_no);
        if (!spec.ok()) return spec.error();
        const NodeId np = node_of(out.circuit, tokens[1]);
        const NodeId nm = node_of(out.circuit, tokens[2]);
        if (kind == 'v') {
          out.circuit.add<VoltageSource>(name, np, nm, spec->wave,
                                         spec->ac_mag);
        } else {
          out.circuit.add<CurrentSource>(name, np, nm, spec->wave,
                                         spec->ac_mag);
        }
        break;
      }
      case 'g': {
        if (tokens.size() < 6) {
          return err(0, "G needs 4 nodes + transconductance");
        }
        auto gm = parse_spice_number(tokens[5]);
        if (!gm.ok()) return err(5, gm.error().message);
        out.circuit.add<Vccs>(name, node_of(out.circuit, tokens[1]),
                              node_of(out.circuit, tokens[2]),
                              node_of(out.circuit, tokens[3]),
                              node_of(out.circuit, tokens[4]), *gm);
        break;
      }
      case 'b': {
        if (tokens.size() < 4) {
          return err(0, "B needs bias node, sense node, target");
        }
        auto v = parse_spice_number(tokens[3]);
        if (!v.ok()) return err(3, v.error().message);
        out.circuit.add<BiasProbe>(name, node_of(out.circuit, tokens[1]),
                                   node_of(out.circuit, tokens[2]), *v);
        break;
      }
      case 'm': {
        if (tokens.size() < 6) {
          return err(0, "M needs d g s b + nmos|pmos [+ options]");
        }
        const std::string type = lower(tokens[5]);
        if (type != "nmos" && type != "pmos") {
          return err(5, "device type must be nmos or pmos");
        }
        const auto options = options_from(tokens, 6);
        // Token index of a key=value option, for located errors (0 = the
        // element name when the key is absent).
        const auto opt_index = [&](const std::string& key) -> std::size_t {
          for (std::size_t i = 6; i < tokens.size(); ++i) {
            if (lower(tokens[i]).rfind(key + "=", 0) == 0) return i;
          }
          return 0;
        };
        MosGeom geom;
        geom.length = 2.0 * default_card.l_min;
        TechCard card = default_card;
        if (auto it = options.find("card"); it != options.end()) {
          if (it->second == "ptm45") {
            card = TechCard::ptm45();
          } else if (it->second == "finfet16") {
            card = TechCard::finfet16();
          } else {
            return err(opt_index("card"), "unknown card '" + it->second + "'");
          }
        }
        if (auto it = options.find("w"); it != options.end()) {
          auto v = parse_spice_number(it->second);
          if (!v.ok()) return err(opt_index("w"), v.error().message);
          geom.width = *v;
        } else {
          return err(0, "M device needs w=<width>");
        }
        if (auto it = options.find("l"); it != options.end()) {
          auto v = parse_spice_number(it->second);
          if (!v.ok()) return err(opt_index("l"), v.error().message);
          geom.length = *v;
        }
        if (auto it = options.find("mult"); it != options.end()) {
          auto v = parse_spice_number(it->second);
          if (!v.ok()) return err(opt_index("mult"), v.error().message);
          if (!(*v >= 1.0 && *v <= std::numeric_limits<int>::max() &&
                std::floor(*v) == *v)) {
            return err(opt_index("mult"), "mult '" + it->second +
                                              "' must be a whole number >= 1");
          }
          geom.mult = static_cast<int>(*v);
        }
        out.circuit.add<Mosfet>(
            name, node_of(out.circuit, tokens[1]),
            node_of(out.circuit, tokens[2]), node_of(out.circuit, tokens[3]),
            node_of(out.circuit, tokens[4]),
            type == "nmos" ? MosType::Nmos : MosType::Pmos, geom, card);
        break;
      }
      default:
        return err(0, "unknown element '" + tokens[0] + "'");
    }
  }

  // Validate analysis probes exist.
  auto check_probe = [&](const std::string& probe) -> bool {
    return probe == "0" || probe == "gnd" || out.circuit.has_node(probe);
  };
  for (const auto& req : out.ac) {
    if (!check_probe(req.probe)) {
      return util::Error{".ac probe node '" + req.probe + "' not in netlist",
                         10};
    }
  }
  for (const auto& req : out.tran) {
    if (!check_probe(req.probe)) {
      return util::Error{".tran probe node '" + req.probe + "' not in netlist",
                         10};
    }
  }
  for (const auto& req : out.noise) {
    if (!check_probe(req.probe)) {
      return util::Error{".noise probe node '" + req.probe + "' not in netlist",
                         10};
    }
  }
  return out;
}

util::Expected<ParsedNetlist> NetlistDeck::instantiate_default() const {
  std::vector<double> values;
  values.reserve(params.size());
  for (const DeckParam& p : params) values.push_back(p.default_value());
  return instantiate(values);
}

util::Expected<NetlistDeck> parse_deck_syntax(const std::string& text) {
  NetlistDeck deck;

  std::istringstream stream(text);
  std::string line;
  std::size_t line_no = 0;
  bool ended = false;

  while (std::getline(stream, line)) {
    ++line_no;
    if (ended) break;
    scan_lint_disable(line, deck.lint_disables);
    const TokenizedLine tl = tokenize(line);
    const auto& tokens = tl.tokens;
    if (tokens.empty()) continue;
    const std::string head = lower(tokens[0]);

    if (head == ".end") {
      ended = true;
      continue;
    }
    if (head == ".title") {
      std::ostringstream title;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (i > 1) title << ' ';
        title << tokens[i];
      }
      deck.title = title.str();
      continue;
    }

    // ---- sizing declarations --------------------------------------------
    if (head == ".param") {
      if (tokens.size() < 5) {
        return at(line_no, tl.cols[0], ".param needs name lo hi steps [log]");
      }
      DeckParam p;
      p.name = lower(tokens[1]);
      p.line_no = line_no;
      if (deck.param_index(p.name) >= 0) {
        return at(line_no, tl.cols[1], "duplicate .param '" + p.name + "'");
      }
      auto lo = parse_spice_number(tokens[2]);
      auto hi = parse_spice_number(tokens[3]);
      auto steps = parse_spice_number(tokens[4]);
      if (!lo.ok()) return at(line_no, tl.cols[2], lo.error().message);
      if (!hi.ok()) return at(line_no, tl.cols[3], hi.error().message);
      if (!steps.ok()) return at(line_no, tl.cols[4], steps.error().message);
      p.lo = *lo;
      p.hi = *hi;
      if (*steps < 1.0 || *steps != std::floor(*steps)) {
        return at(line_no, tl.cols[4],
                  ".param '" + p.name + "': steps must be a " +
                      "positive integer, got '" + tokens[4] + "'");
      }
      p.steps = static_cast<int>(*steps);
      if (p.hi < p.lo) {
        return at(line_no, tl.cols[3], ".param '" + p.name + "': hi < lo");
      }
      if (tokens.size() > 5) {
        if (lower(tokens[5]) != "log") {
          return at(line_no, tl.cols[5],
                    "unexpected token '" + tokens[5] +
                        "' (only 'log' may follow steps)");
        }
        p.log_scale = true;
        // NOTE: the lo > 0 requirement of log grids is enforced by
        // parse_deck (and reported as AC203 by the linter), not here —
        // parse_deck_syntax keeps such decks inspectable.
      }
      deck.params.push_back(std::move(p));
      continue;
    }
    if (head == ".spec") {
      if (tokens.size() < 6) {
        return at(line_no, tl.cols[0],
                  ".spec needs name sense sample_lo sample_hi norm");
      }
      DeckSpec s;
      s.name = lower(tokens[1]);
      s.line_no = line_no;
      for (const DeckSpec& existing : deck.specs) {
        if (existing.name == s.name) {
          return at(line_no, tl.cols[1], "duplicate .spec '" + s.name + "'");
        }
      }
      auto sense = parse_sense(tokens[2], line_no, tl.cols[2]);
      if (!sense.ok()) return sense.error();
      s.sense = *sense;
      auto lo = parse_spice_number(tokens[3]);
      auto hi = parse_spice_number(tokens[4]);
      auto norm = parse_spice_number(tokens[5]);
      if (!lo.ok()) return at(line_no, tl.cols[3], lo.error().message);
      if (!hi.ok()) return at(line_no, tl.cols[4], hi.error().message);
      if (!norm.ok()) return at(line_no, tl.cols[5], norm.error().message);
      s.sample_lo = *lo;
      s.sample_hi = *hi;
      s.norm = *norm;
      if (s.sample_hi < s.sample_lo) {
        return at(line_no, tl.cols[4],
                  ".spec '" + s.name + "': sample_hi < sample_lo");
      }
      if (s.norm <= 0.0) {
        return at(line_no, tl.cols[5],
                  ".spec '" + s.name + "': norm must be > 0");
      }
      for (std::size_t i = 6; i < tokens.size(); ++i) {
        const std::string opt = lower(tokens[i]);
        if (opt.rfind("fail=", 0) == 0) {
          auto fv = parse_spice_number(opt.substr(5));
          if (!fv.ok()) return at(line_no, tl.cols[i], fv.error().message);
          s.fail_value = *fv;
          s.has_fail = true;
        } else {
          return at(line_no, tl.cols[i],
                    "unexpected token '" + tokens[i] + "'");
        }
      }
      if (!s.has_fail) {
        // Sense-appropriate default: a value that decisively fails any
        // target in the sampling range, so a failed measurement can never
        // read as satisfied.
        s.fail_value = s.sense == DeckSpec::Sense::GreaterEq
                           ? 0.0
                           : 1e3 * std::max(std::abs(s.sample_hi), s.norm);
      }
      deck.specs.push_back(std::move(s));
      continue;
    }
    if (head == ".measure") {
      if (tokens.size() < 3) {
        return at(line_no, tl.cols[0], ".measure needs spec_name and kind");
      }
      DeckMeasure m;
      m.spec = lower(tokens[1]);
      m.line_no = line_no;
      auto kind = parse_measure_kind(tokens[2], line_no, tl.cols[2]);
      if (!kind.ok()) return kind.error();
      m.kind = *kind;
      if (m.kind == DeckMeasure::Kind::SupplyCurrent) {
        if (tokens.size() < 4) {
          return at(line_no, tl.cols[2],
                    ".measure supply_current needs a V-source name");
        }
        m.source = lower(tokens[3]);
      }
      for (const DeckMeasure& existing : deck.measures) {
        if (existing.spec == m.spec) {
          return at(line_no, tl.cols[1],
                    "duplicate .measure for spec '" + m.spec + "'");
        }
      }
      deck.measures.push_back(std::move(m));
      continue;
    }

    // Everything else — elements and simulation directives — is kept raw
    // for (re-)instantiation at arbitrary design-variable values.
    deck.lines.push_back(NetlistDeck::RawLine{line_no, tokens, tl.cols});
  }

  return deck;
}

util::Expected<NetlistDeck> parse_deck(const std::string& text) {
  auto parsed = parse_deck_syntax(text);
  if (!parsed.ok()) return parsed.error();
  NetlistDeck deck = std::move(*parsed);

  // Grid-bound validation deferred from the syntax pass (the linter reports
  // this as AC203 instead of stopping at the first defect).
  for (const DeckParam& p : deck.params) {
    if (p.log_scale && p.lo <= 0.0) {
      return at_line(p.line_no,
                     ".param '" + p.name + "': log grid needs lo > 0");
    }
  }

  // Eager validation: instantiate at the default design point so malformed
  // element lines and unknown {param} references fail at parse time with
  // their line numbers, not at first evaluation.
  auto inst = deck.instantiate_default();
  if (!inst.ok()) return inst.error();

  // Cross-validate the sizing declarations against the instantiated deck.
  for (const DeckMeasure& m : deck.measures) {
    bool known = false;
    for (const DeckSpec& s : deck.specs) known = known || s.name == m.spec;
    if (!known) {
      return at_line(m.line_no,
                     ".measure references undeclared spec '" + m.spec + "'");
    }
    switch (m.kind) {
      case DeckMeasure::Kind::Gain:
      case DeckMeasure::Kind::F3db:
      case DeckMeasure::Kind::Ugbw:
      case DeckMeasure::Kind::PhaseMargin:
        if (inst->ac.empty()) {
          return at_line(m.line_no, ".measure '" + m.spec +
                                        "' needs a .ac analysis in the deck");
        }
        break;
      case DeckMeasure::Kind::Settling:
        if (inst->tran.empty()) {
          return at_line(m.line_no,
                         ".measure '" + m.spec +
                             "' needs a .tran analysis in the deck");
        }
        break;
      case DeckMeasure::Kind::Noise:
        if (inst->noise.empty()) {
          return at_line(m.line_no,
                         ".measure '" + m.spec +
                             "' needs a .noise analysis in the deck");
        }
        break;
      case DeckMeasure::Kind::SupplyCurrent: {
        const Device* dev = inst->circuit.find(m.source);
        if (dev == nullptr) {
          return at_line(m.line_no, ".measure supply_current: no device '" +
                                        m.source + "' in the deck");
        }
        if (dev->branch_count() == 0) {
          return at_line(m.line_no, ".measure supply_current: device '" +
                                        m.source +
                                        "' carries no branch current");
        }
        break;
      }
    }
  }
  for (const DeckSpec& s : deck.specs) {
    bool measured = false;
    for (const DeckMeasure& m : deck.measures) {
      measured = measured || m.spec == s.name;
    }
    if (!measured) {
      return at_line(s.line_no,
                     ".spec '" + s.name + "' has no .measure binding");
    }
  }
  return deck;
}

util::Expected<ParsedNetlist> parse_netlist(const std::string& text) {
  auto deck = parse_deck(text);
  if (!deck.ok()) return deck.error();
  return deck->instantiate_default();
}

}  // namespace autockt::spice
