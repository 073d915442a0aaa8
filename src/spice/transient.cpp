#include "spice/transient.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "spice/newton.hpp"

namespace autockt::spice {

namespace {

double across(const std::vector<double>& node_v, const CapElement& e) {
  const double v1 = e.n1 == kGround ? 0.0 : node_v[e.n1];
  const double v2 = e.n2 == kGround ? 0.0 : node_v[e.n2];
  return v1 - v2;
}

/// Bitwise equality of two equal-length vectors (== would equate -0.0 and
/// 0.0, whose bits differ).
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The trapezoidal companions' stamps, bound to their value slots and
/// right-hand-side rows once per run. Each capacitive element stamps
/// geq = 2C/h between its terminals and injects its history current ihist
/// into n1 (and -ihist into n2); the adds keep the order of
/// RealStamp::conductance and inject, element by element, so every slot
/// and row sums in the same order as an unbound stamp (an element whose
/// terminals are one node adds +g, +g, -g, -g into one slot).
struct BoundCompanions {
  struct RhsAdd {
    std::size_t row;
    std::size_t cap;  // index into the ihist vector
    bool negate;
  };
  std::vector<std::pair<int, double>> matrix;  // (value slot, +-geq)
  std::vector<RhsAdd> rhs;

  void bind(const MnaSink& a, const std::vector<CapElement>& elems,
            const std::vector<double>& geq) {
    matrix.reserve(4 * elems.size());
    rhs.reserve(2 * elems.size());
    for (std::size_t c = 0; c < elems.size(); ++c) {
      const NodeId n1 = elems[c].n1, n2 = elems[c].n2;
      const double g = geq[c];
      if (n1 != kGround) matrix.emplace_back(a.slot(n1 - 1, n1 - 1), g);
      if (n2 != kGround) matrix.emplace_back(a.slot(n2 - 1, n2 - 1), g);
      if (n1 != kGround && n2 != kGround) {
        matrix.emplace_back(a.slot(n1 - 1, n2 - 1), -g);
        matrix.emplace_back(a.slot(n2 - 1, n1 - 1), -g);
      }
      if (n1 != kGround) rhs.push_back({n1 - 1, c, false});
      if (n2 != kGround) rhs.push_back({n2 - 1, c, true});
    }
  }

  void stamp(RealStamp& ctx, const std::vector<double>& ihist) const {
    for (const auto& [slot, g] : matrix) ctx.a.add_at(slot, g);
    for (const RhsAdd& r : rhs) {
      ctx.b[r.row] += r.negate ? -ihist[r.cap] : ihist[r.cap];
    }
  }
};

util::Expected<TranResult> transient_impl(const Circuit& circuit,
                                          SimWorkspace& ws,
                                          const OpPoint& initial,
                                          const std::vector<NodeId>& probes,
                                          const TranOptions& options) {
  const std::size_t n_unknowns = circuit.num_unknowns();
  const std::size_t n_nodes = circuit.num_nodes();
  const double h = options.dt;
  const auto time_of = [h](std::size_t k) {
    return static_cast<double>(k) * h;
  };

  // Companion state: ihist = geq * v + i, from the voltage across (n1 - n2)
  // and the current through at the previous accepted step; i_new = geq *
  // v_new - ihist.
  const std::vector<CapElement> elems = circuit.collect_caps();
  std::vector<double> geq(elems.size());    // 2C/h, fixed for the run
  std::vector<double> ihist(elems.size());  // updated once per accepted step
  for (std::size_t c = 0; c < elems.size(); ++c) {
    geq[c] = 2.0 * elems[c].capacitance / h;
    // At the operating point no current flows: i = 0.
    ihist[c] = geq[c] * across(initial.node_v, elems[c]) + 0.0;
  }

  // Every Newton iteration stamps the companions as they stand. Their
  // conductance slots are part of the workspace's frozen pattern (declared
  // weak), so the kernel re-uses its symbolic factorization across every
  // step and iteration; they are bound on the first stamp.
  BoundCompanions bound;
  bool is_bound = false;
  auto companions = [&](RealStamp& ctx) {
    if (!is_bound) {
      bound.bind(ctx.a, elems, geq);
      is_bound = true;
    }
    bound.stamp(ctx, ihist);
  };

  // Full unknown vector, warm-started from the operating point.
  std::vector<double> x(n_unknowns, 0.0);
  for (NodeId n = 1; n < n_nodes; ++n) x[n - 1] = initial.node_v[n];
  for (std::size_t b = 0; b < circuit.num_branches(); ++b) {
    x[(n_nodes - 1) + b] = initial.branch_i[b];
  }

  TranResult result;
  const auto steps = static_cast<std::size_t>(std::ceil(options.t_stop / h));
  result.time.reserve(steps + 1);
  result.waveforms.assign(probes.size(), {});

  std::vector<double> node_v(n_nodes, 0.0);
  std::vector<double> x_new;

  auto record = [&](double t, const std::vector<double>& xs) {
    result.time.push_back(t);
    for (std::size_t p = 0; p < probes.size(); ++p) {
      const NodeId n = probes[p];
      result.waveforms[p].push_back(n == kGround ? 0.0 : xs[n - 1]);
    }
  };
  record(0.0, x);

  // Step k computes its state (x, ihist) from state k-1 and the stamps at
  // t_k alone: the workspace zeroes its values, right-hand side and LU
  // arrays every pass, and the Newton loop reads nothing but x. So when
  // state k equals state k-2 bit for bit and every device stamps the same
  // values from t_{k-1} through t_m, steps k+1..m alternate between states
  // k-1 and k, and are recorded without being solved. The compare looks two
  // steps back because each step flips the rounding of the companion
  // currents, so a settled state mostly repeats with period 2, not 1.
  // ring[j % 2] holds state j for the last two accepted steps.
  std::array<std::vector<double>, 2> ring_x{x, x};
  std::array<std::vector<double>, 2> ring_ih{ihist, ihist};
  const auto stamps_constant = [&](std::size_t a, std::size_t b) {
    for (const auto& d : circuit.devices()) {
      if (!d->stamps_constant_between(time_of(a), time_of(b))) return false;
    }
    return true;
  };
  // The last step m >= k such that every stamp is constant from t_{k-1}
  // through t_m (m = k: none; constancy on a span implies it on sub-spans).
  const auto last_replayable = [&](std::size_t k) {
    std::size_t lo = k, hi = steps + 1;  // lo replayable; hi not, or past end
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (stamps_constant(k - 1, mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  };

  for (std::size_t k = 1; k <= steps; ++k) {
    const double t = time_of(k);
    bool converged = false;
    detail::StampKnobs knobs;
    knobs.time = t;
    knobs.transient = true;

    for (int iter = 0; iter < options.max_newton; ++iter) {
      kernel_counters::add_newton_iterations(1);
      for (NodeId n = 1; n < n_nodes; ++n) node_v[n] = x[n - 1];
      if (!detail::solve_one_lane(ws, circuit, node_v, knobs, companions,
                                  x_new)) {
        return util::Error{"transient matrix singular at t=" +
                               std::to_string(t),
                           3};
      }

      if (detail::newton_converged(x_new, x, n_nodes - 1, options.v_abstol,
                                   options.v_reltol)) {
        x = x_new;
        converged = true;
        break;
      }
      for (std::size_t i = 0; i < n_unknowns; ++i) {
        double step = x_new[i] - x[i];
        if (i + 1 < n_nodes) {
          step = std::clamp(step, -options.max_step, options.max_step);
        }
        x[i] += step;
      }
    }
    if (!converged) {
      return util::Error{"transient Newton failed at t=" + std::to_string(t),
                         3};
    }

    // Accept the step: roll companion state forward.
    for (NodeId n = 1; n < n_nodes; ++n) node_v[n] = x[n - 1];
    for (std::size_t c = 0; c < elems.size(); ++c) {
      const double v_new = across(node_v, elems[c]);
      const double i_new = geq[c] * v_new - ihist[c];
      ihist[c] = geq[c] * v_new + i_new;
    }
    record(t, x);

    const std::size_t slot = k % 2;
    if (k < 2 || !same_bits(x, ring_x[slot]) ||
        !same_bits(ihist, ring_ih[slot])) {
      ring_x[slot] = x;
      ring_ih[slot] = ihist;
      continue;
    }
    // State k is state k-2, already in ring[k % 2]; replay to step m.
    const std::size_t m = last_replayable(k);
    for (std::size_t j = k + 1; j <= m; ++j) record(time_of(j), ring_x[j % 2]);
    x = ring_x[m % 2];
    ihist = ring_ih[m % 2];
    k = m;
  }
  return result;
}

}  // namespace

util::Expected<TranResult> transient(const Circuit& circuit,
                                     const OpPoint& initial,
                                     const std::vector<NodeId>& probes,
                                     const TranOptions& options) {
  // The step count is ceil(t_stop / dt) cast to size_t: reject what has no
  // such count (dt <= 0, NaN or infinite spans, negative t_stop) instead of
  // casting it.
  constexpr auto kMaxSteps =
      static_cast<double>(std::numeric_limits<std::size_t>::max());
  const double steps = std::ceil(options.t_stop / options.dt);
  if (!(options.dt > 0.0) || !(steps >= 0.0 && steps < kMaxSteps)) {
    return util::Error{"transient: needs dt > 0 and a finite t_stop / dt >= 0",
                       3};
  }
  if (options.workspace != nullptr &&
      (!options.workspace->compatible(circuit) ||
       !options.workspace->has_real())) {
    return util::Error{"transient: workspace does not match the circuit", 3};
  }
  kernel_counters::CallScope counts;
  std::optional<SimWorkspace> scratch;
  SimWorkspace* ws = options.workspace;
  if (ws == nullptr) {
    scratch.emplace(circuit, SimWorkspace::Sides::Real);
    ws = &*scratch;
  }
  return transient_impl(circuit, *ws, initial, probes, options);
}

}  // namespace autockt::spice
