#include "spice/dc.hpp"

#include <algorithm>
#include <cmath>

#include "spice/real_solver.hpp"

namespace autockt::spice {

namespace {

using detail::kNoExtraStamps;
using detail::StampKnobs;

struct NewtonResult {
  bool converged = false;
  std::vector<double> x;  // full unknown vector
};

/// Plain damped Newton at fixed (gmin, source_scale), warm-started from
/// `x0`, over either kernel driver.
template <typename Driver>
NewtonResult newton(const Circuit& circuit, Driver& driver,
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
    if (!driver.solve(circuit, node_v, knobs, kNoExtraStamps, x_new)) {
      return res;  // singular: report non-convergence
    }

    // Convergence check on the undamped node-voltage update.
    double worst = 0.0;
    for (std::size_t i = 0; i + 1 < n_nodes; ++i) {
      const double dv = std::fabs(x_new[i] - res.x[i]);
      const double tol = opt.v_abstol + opt.v_reltol * std::fabs(x_new[i]);
      worst = std::max(worst, dv - tol);
    }
    if (worst <= 0.0) {
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
/// stepping), from the cold-start guess `x0`. Shared by the scalar solver
/// and the batched solver's per-lane retirement path; both homotopy stages
/// restart from `x0`/zeros, so results are independent of how the earlier
/// stages were executed.
template <typename Driver>
util::Expected<OpPoint> homotopy_tail(const Circuit& circuit, Driver& driver,
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
    NewtonResult r = newton(circuit, driver, homotopy, gmin, 1.0, x);
    if (!r.converged) {
      chain_ok = false;
      break;
    }
    x = r.x;
  }
  if (chain_ok) {
    NewtonResult r = newton(circuit, driver, homotopy, 0.0, 1.0, x);
    if (r.converged) return circuit.unpack(r.x);
  }

  // Stage 3: source stepping — ramp all independent sources from zero.
  x.assign(circuit.num_unknowns(), 0.0);
  chain_ok = true;
  for (double scale : {0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0}) {
    NewtonResult r = newton(circuit, driver, homotopy, 0.0, scale, x);
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

template <typename Driver>
util::Expected<OpPoint> solve_op_impl(const Circuit& circuit, Driver& driver,
                                      const DcOptions& options) {
  // Stage 0: warm start from a nearby design's converged operating point.
  // A hit skips stamping heuristics entirely; a miss falls through to the
  // cold-start chain below, keeping behaviour deterministic.
  std::vector<double> xw = warm_start_guess(circuit, options);
  if (!xw.empty()) {
    kernel_counters::add_warm_start_attempt();
    NewtonResult warm =
        newton(circuit, driver, options, 0.0, 1.0, std::move(xw));
    if (warm.converged) {
      kernel_counters::add_warm_start_hit();
      return circuit.unpack(warm.x);
    }
  }

  const std::vector<double> x0 = cold_start_guess(circuit, options);

  // Stage 1: plain Newton from the caller's guess.
  NewtonResult best = newton(circuit, driver, options, 0.0, 1.0, x0);
  if (best.converged) return circuit.unpack(best.x);

  // Stages 2 + 3: homotopy fallback chain.
  return homotopy_tail(circuit, driver, options, x0);
}

util::Error workspace_mismatch() {
  return util::Error{"DC solve: workspace does not match the circuit", 1};
}

/// The scalar sparse solve on a caller-owned workspace.
util::Expected<OpPoint> solve_op_on(const Circuit& circuit,
                                    const DcOptions& options,
                                    SimWorkspace& ws) {
  // A stale workspace would stamp through the wrong frozen pattern; fail
  // deterministically instead of producing plausible garbage.
  if (!ws.compatible(circuit) || !ws.has_real()) return workspace_mismatch();
  detail::SparseRealDriver driver{ws};
  return solve_op_impl(circuit, driver, options);
}

}  // namespace

util::Expected<OpPoint> solve_op(const Circuit& circuit,
                                 const DcOptions& options) {
  if (options.kernel == SimKernel::Dense) {
    detail::DenseRealDriver driver(circuit.num_unknowns());
    return solve_op_impl(circuit, driver, options);
  }
  if (options.workspace != nullptr) {
    return solve_op_on(circuit, options, *options.workspace);
  }
  SimWorkspace scratch(circuit, SimWorkspace::Sides::Real);
  detail::SparseRealDriver driver{scratch};
  return solve_op_impl(circuit, driver, options);
}

std::vector<util::Expected<OpPoint>> solve_op_batch(
    const std::vector<const Circuit*>& circuits,
    const std::vector<DcOptions>& options, SimWorkspace& ws) {
  const std::size_t K = circuits.size();
  std::vector<util::Expected<OpPoint>> results;
  if (K == 1) {
    // One lane shares its kernel passes with nobody: the scalar kernel
    // gives the same answer without the lane bookkeeping.
    results.push_back(solve_op_on(*circuits[0], options[0], ws));
    return results;
  }
  results.assign(K, util::Error{"DC operating point did not converge", 1});
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
    lane.active = true;
  }

  // A failed stage moves the lane forward: warm miss -> cold start, cold
  // exhaustion -> retire to the scalar homotopy chain below.
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
    ws.ensure_real_batch(n_active);
    kernel_counters::add_newton_iterations(static_cast<long>(n_active));

    // One restamp sweep: every active lane stages through the scalar value
    // arrays (preserving the scalar accumulation order) and commits its SoA
    // column.
    for (std::size_t s = 0; s < n_active; ++s) {
      Lane& lane = lanes[slots[s]];
      ++lane.iter;
      const std::size_t n_nodes = lane.circuit->num_nodes();
      for (NodeId n = 1; n < n_nodes; ++n) lane.node_v[n] = lane.x[n - 1];
      RealStamp ctx = ws.begin_real(lane.node_v);
      ctx.gmin = 0.0;
      ctx.source_scale = 1.0;
      lane.circuit->stamp_real(ctx);
      ws.commit_real_batch_lane(s);
    }
    ws.factor_real_batch();
    ws.solve_real_batch();

    for (std::size_t s = 0; s < n_active; ++s) {
      Lane& lane = lanes[slots[s]];
      const DcOptions& opt = *lane.opt;
      if (!ws.real_lane_solvable(s)) {
        advance_stage(lane);  // singular: the scalar stage reports failure
        continue;
      }
      ws.real_lane_solution(s, x_new);

      // Convergence check on the undamped node-voltage update (identical to
      // the scalar newton()).
      const std::size_t n_nodes = lane.circuit->num_nodes();
      double worst = 0.0;
      for (std::size_t i = 0; i + 1 < n_nodes; ++i) {
        const double dv = std::fabs(x_new[i] - lane.x[i]);
        const double tol = opt.v_abstol + opt.v_reltol * std::fabs(x_new[i]);
        worst = std::max(worst, dv - tol);
      }
      if (worst <= 0.0) {
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

  // Retired lanes: scalar homotopy chain on the shared workspace (stages 2
  // and 3 restart from x0/zeros, so the result is independent of the
  // lockstep stages above — identical to the scalar fallback).
  for (std::size_t l = 0; l < K; ++l) {
    if (!lanes[l].needs_homotopy) continue;
    detail::SparseRealDriver driver{ws};
    results[l] =
        homotopy_tail(*lanes[l].circuit, driver, *lanes[l].opt, lanes[l].x0);
  }
  return results;
}

}  // namespace autockt::spice
