#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "spice/newton.hpp"

namespace autockt::spice {

namespace {

/// Trapezoidal companion of one capacitive element: i_new = geq * v_new -
/// ihist, where ihist = geq * v + i from the voltage across (n1 - n2) and
/// the current through at the previous accepted step.
struct CapState {
  CapElement elem;
  double geq = 0.0;    // 2C/h, fixed for the run
  double ihist = 0.0;  // updated once per accepted step
};

double across(const std::vector<double>& node_v, const CapElement& e) {
  const double v1 = e.n1 == kGround ? 0.0 : node_v[e.n1];
  const double v2 = e.n2 == kGround ? 0.0 : node_v[e.n2];
  return v1 - v2;
}

util::Expected<TranResult> transient_impl(const Circuit& circuit,
                                          SimWorkspace& ws,
                                          const OpPoint& initial,
                                          const std::vector<NodeId>& probes,
                                          const TranOptions& options) {
  const std::size_t n_unknowns = circuit.num_unknowns();
  const std::size_t n_nodes = circuit.num_nodes();
  const double h = options.dt;

  std::vector<CapState> caps;
  for (const CapElement& e : circuit.collect_caps()) {
    CapState s;
    s.elem = e;
    s.geq = 2.0 * e.capacitance / h;
    // At the operating point no current flows: i = 0.
    s.ihist = s.geq * across(initial.node_v, e) + 0.0;
    caps.push_back(s);
  }

  // Every Newton iteration stamps the companions as they stand. Their
  // conductance slots are part of the workspace's frozen pattern (declared
  // weak), so the kernel re-uses its symbolic factorization across every
  // step and iteration.
  auto companions = [&](RealStamp& ctx) {
    for (const CapState& s : caps) {
      ctx.conductance(s.elem.n1, s.elem.n2, s.geq);
      ctx.inject(s.elem.n1, s.ihist);
      ctx.inject(s.elem.n2, -s.ihist);
    }
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

  auto record = [&](double t) {
    result.time.push_back(t);
    for (std::size_t p = 0; p < probes.size(); ++p) {
      const NodeId n = probes[p];
      result.waveforms[p].push_back(n == kGround ? 0.0 : x[n - 1]);
    }
  };
  record(0.0);

  for (std::size_t k = 1; k <= steps; ++k) {
    const double t = static_cast<double>(k) * h;
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
    for (CapState& s : caps) {
      const double v_new = across(node_v, s.elem);
      const double i_new = s.geq * v_new - s.ihist;
      s.ihist = s.geq * v_new + i_new;
    }
    record(t);
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
