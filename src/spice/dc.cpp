#include "spice/dc.hpp"

#include <algorithm>
#include <optional>

#include "spice/newton.hpp"

namespace autockt::spice {

namespace {

using detail::kNoExtraStamps;
using detail::newton_converged;
using detail::StampKnobs;

struct NewtonResult {
  bool converged = false;
  std::vector<double> x;  // full unknown vector
};

/// Plain damped Newton at fixed (gmin, source_scale), warm-started from
/// `x0`, as one-lane passes on `ws`.
NewtonResult newton(const Circuit& circuit, SimWorkspace& ws,
                    const DcOptions& opt, double gmin, double source_scale,
                    std::vector<double> x0) {
  const std::size_t n_unknowns = circuit.num_unknowns();
  const std::size_t n_nodes = circuit.num_nodes();
  NewtonResult res;
  res.x = std::move(x0);
  res.x.resize(n_unknowns, 0.0);

  std::vector<double> node_v(n_nodes, 0.0);
  std::vector<double> x_new;
  StampKnobs knobs;
  knobs.gmin = gmin;
  knobs.source_scale = source_scale;

  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    kernel_counters::add_newton_iterations(1);
    for (NodeId n = 1; n < n_nodes; ++n) node_v[n] = res.x[n - 1];
    if (!detail::solve_one_lane(ws, circuit, node_v, knobs, kNoExtraStamps,
                                x_new)) {
      return res;  // singular: report non-convergence
    }

    // Convergence check on the undamped node-voltage update.
    if (newton_converged(x_new, res.x, n_nodes - 1, opt.v_abstol,
                         opt.v_reltol)) {
      res.x = x_new;
      res.converged = true;
      return res;
    }

    // Damped update: clamp per-node moves, take branch currents in full.
    for (std::size_t i = 0; i < n_unknowns; ++i) {
      double step = x_new[i] - res.x[i];
      if (i + 1 < n_nodes) {
        step = std::clamp(step, -opt.max_step, opt.max_step);
      }
      res.x[i] += step;
    }
  }
  return res;
}

/// Stages 2 + 3 of the DC fallback chain (gmin stepping, then source
/// stepping), from the cold-start guess `x0`, for a lane that exhausted
/// the lockstep stages. Both homotopy stages restart from `x0`/zeros, so
/// results are independent of how the earlier stages were executed.
util::Expected<OpPoint> homotopy_tail(const Circuit& circuit, SimWorkspace& ws,
                                      const DcOptions& options,
                                      const std::vector<double>& x0) {
  // Homotopy stages run with a larger iteration budget: they are the
  // last-resort path and only execute for hard bias points.
  DcOptions homotopy = options;
  homotopy.max_iterations = 3 * options.max_iterations;

  // Stage 2: gmin stepping — heavy shunt conductance first, then relax.
  std::vector<double> x = x0;
  bool chain_ok = true;
  for (double gmin = 1e-2; gmin >= 1e-13; gmin *= 1e-2) {
    NewtonResult r = newton(circuit, ws, homotopy, gmin, 1.0, x);
    if (!r.converged) {
      chain_ok = false;
      break;
    }
    x = r.x;
  }
  if (chain_ok) {
    NewtonResult r = newton(circuit, ws, homotopy, 0.0, 1.0, x);
    if (r.converged) return circuit.unpack(r.x);
  }

  // Stage 3: source stepping — ramp all independent sources from zero.
  x.assign(circuit.num_unknowns(), 0.0);
  chain_ok = true;
  for (double scale : {0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0}) {
    NewtonResult r = newton(circuit, ws, homotopy, 0.0, scale, x);
    if (!r.converged) {
      chain_ok = false;
      break;
    }
    x = r.x;
  }
  if (chain_ok) return circuit.unpack(x);

  return util::Error{"DC operating point did not converge", 1};
}

/// Cold-start node-voltage guess as a full unknown vector.
std::vector<double> cold_start_guess(const Circuit& circuit,
                                     const DcOptions& options) {
  std::vector<double> x0(circuit.num_unknowns(), 0.0);
  if (!options.initial_node_v.empty()) {
    for (NodeId n = 1;
         n < std::min(circuit.num_nodes(), options.initial_node_v.size() + 0);
         ++n) {
      x0[n - 1] = options.initial_node_v[n];
    }
  }
  return x0;
}

/// Warm-start hint as a full unknown vector, or empty when the hint is
/// missing or shaped for a different topology.
std::vector<double> warm_start_guess(const Circuit& circuit,
                                     const DcOptions& options) {
  if (options.warm_start == nullptr ||
      options.warm_start->node_v.size() != circuit.num_nodes() ||
      options.warm_start->branch_i.size() != circuit.num_branches()) {
    return {};
  }
  std::vector<double> xw(circuit.num_unknowns(), 0.0);
  for (NodeId n = 1; n < circuit.num_nodes(); ++n) {
    xw[n - 1] = options.warm_start->node_v[n];
  }
  for (std::size_t b = 0; b < circuit.num_branches(); ++b) {
    xw[(circuit.num_nodes() - 1) + b] = options.warm_start->branch_i[b];
  }
  return xw;
}

util::Error workspace_mismatch() {
  return util::Error{"DC solve: workspace does not match the circuit", 1};
}

}  // namespace

util::Expected<OpPoint> solve_op(const Circuit& circuit,
                                 const DcOptions& options) {
  std::optional<SimWorkspace> scratch;
  SimWorkspace* ws = options.workspace;
  if (ws == nullptr) {
    scratch.emplace(circuit, SimWorkspace::Sides::Real);
    ws = &*scratch;
  }
  return std::move(solve_op_batch({&circuit}, {options}, *ws).front());
}

std::vector<util::Expected<OpPoint>> solve_op_batch(
    const std::vector<const Circuit*>& circuits,
    const std::vector<DcOptions>& options, SimWorkspace& ws) {
  kernel_counters::CallScope counts;
  const std::size_t K = circuits.size();
  std::vector<util::Expected<OpPoint>> results(
      K, util::Error{"DC operating point did not converge", 1});
  if (K == 0) return results;

  // Per-lane Newton state for the lockstep stages. Stage 0 is the warm
  // start (only lanes with a usable hint), stage 1 the cold start; each has
  // its own max_iterations budget, exactly like the scalar solver.
  struct Lane {
    const Circuit* circuit = nullptr;
    const DcOptions* opt = nullptr;
    int stage = 1;
    int iter = 0;
    std::vector<double> x;
    std::vector<double> x0;
    std::vector<double> node_v;
    bool active = false;
    bool needs_homotopy = false;
  };
  std::vector<Lane> lanes(K);
  for (std::size_t l = 0; l < K; ++l) {
    Lane& lane = lanes[l];
    lane.circuit = circuits[l];
    lane.opt = &options[l];
    if (!ws.compatible(*lane.circuit) || !ws.has_real()) {
      results[l] = workspace_mismatch();
      continue;
    }
    lane.node_v.assign(lane.circuit->num_nodes(), 0.0);
    lane.x0 = cold_start_guess(*lane.circuit, *lane.opt);
    std::vector<double> xw = warm_start_guess(*lane.circuit, *lane.opt);
    if (!xw.empty()) {
      kernel_counters::add_warm_start_attempt();
      lane.stage = 0;
      lane.x = std::move(xw);
    } else {
      lane.stage = 1;
      lane.x = lane.x0;
    }
    // A stage without an iteration budget fails at once, as a Newton loop
    // of zero iterations would.
    lane.active = lane.opt->max_iterations > 0;
    lane.needs_homotopy = !lane.active;
  }

  // A failed stage moves the lane forward: warm miss -> cold start, cold
  // exhaustion -> retire to the homotopy chain below.
  const auto advance_stage = [](Lane& lane) {
    if (lane.stage == 0) {
      lane.stage = 1;
      lane.iter = 0;
      lane.x = lane.x0;
    } else {
      lane.active = false;
      lane.needs_homotopy = true;
    }
  };

  std::vector<std::size_t> slots;
  std::vector<double> x_new;
  for (;;) {
    slots.clear();
    for (std::size_t l = 0; l < K; ++l) {
      if (lanes[l].active) slots.push_back(l);
    }
    if (slots.empty()) break;
    const std::size_t n_active = slots.size();
    ws.begin_real(n_active);
    kernel_counters::add_newton_iterations(static_cast<long>(n_active));

    // One restamp sweep: every active lane stamps straight into its own
    // column of the pass.
    for (std::size_t s = 0; s < n_active; ++s) {
      Lane& lane = lanes[slots[s]];
      ++lane.iter;
      const std::size_t n_nodes = lane.circuit->num_nodes();
      for (NodeId n = 1; n < n_nodes; ++n) lane.node_v[n] = lane.x[n - 1];
      RealStamp ctx = ws.stamp_real(s, lane.node_v);
      lane.circuit->stamp_real(ctx);
    }
    ws.factor_real();
    ws.solve_real();

    for (std::size_t s = 0; s < n_active; ++s) {
      Lane& lane = lanes[slots[s]];
      const DcOptions& opt = *lane.opt;
      if (!ws.real_lane_solvable(s)) {
        advance_stage(lane);  // singular: the stage reports failure
        continue;
      }
      ws.real_lane_solution(s, x_new);

      // Convergence check on the undamped node-voltage update.
      const std::size_t n_nodes = lane.circuit->num_nodes();
      if (newton_converged(x_new, lane.x, n_nodes - 1, opt.v_abstol,
                           opt.v_reltol)) {
        lane.x = x_new;
        if (lane.stage == 0) kernel_counters::add_warm_start_hit();
        results[slots[s]] = lane.circuit->unpack(lane.x);
        lane.active = false;
        continue;
      }

      // Damped update: clamp per-node moves, take branch currents in full.
      const std::size_t n_unknowns = lane.circuit->num_unknowns();
      for (std::size_t i = 0; i < n_unknowns; ++i) {
        double step = x_new[i] - lane.x[i];
        if (i + 1 < n_nodes) {
          step = std::clamp(step, -opt.max_step, opt.max_step);
        }
        lane.x[i] += step;
      }
      if (lane.iter >= opt.max_iterations) advance_stage(lane);
    }
  }

  // Retired lanes: the homotopy chain, one lane at a time on the shared
  // workspace (stages 2 and 3 restart from x0/zeros, so the result is
  // independent of the lockstep stages above).
  for (std::size_t l = 0; l < K; ++l) {
    if (!lanes[l].needs_homotopy) continue;
    results[l] =
        homotopy_tail(*lanes[l].circuit, ws, *lanes[l].opt, lanes[l].x0);
  }
  return results;
}

}  // namespace autockt::spice
