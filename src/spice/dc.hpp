#pragma once
// DC operating-point solver: damped Newton-Raphson with warm starting from a
// previous solution, plus gmin-stepping and source-stepping homotopy
// fallbacks. Non-convergence is reported through util::Expected, never as a
// silent NaN solution.

#include <vector>

#include "spice/circuit.hpp"
#include "spice/workspace.hpp"
#include "util/expected.hpp"

namespace autockt::spice {

struct DcOptions {
  int max_iterations = 120;
  double v_abstol = 1e-9;    // absolute voltage tolerance (V)
  double v_reltol = 1e-6;    // relative voltage tolerance
  double max_step = 0.4;     // Newton damping: max node-voltage move (V)
  /// Optional starting guess for node voltages (size = num_nodes incl.
  /// ground). Empty means all-zeros.
  std::vector<double> initial_node_v;

  /// Reusable workspace (one symbolic factorization per topology). A
  /// temporary workspace is built per call when null.
  SimWorkspace* workspace = nullptr;
  /// Optional warm start: the converged operating point of a nearby design
  /// (e.g. the previous RL env step, one grid move away). Tried as Newton
  /// stage 0; on non-convergence the solver falls back to the regular
  /// cold-start stages, so the fallback chain is deterministic.
  const OpPoint* warm_start = nullptr;
};

/// A one-lane solve_op_batch() on `options.workspace` (or a temporary one).
util::Expected<OpPoint> solve_op(const Circuit& circuit,
                                 const DcOptions& options = {});

/// Batched DC operating points for K circuits sharing one topology (the
/// same frozen stamp pattern, i.e. `ws.compatible()` for every lane). The
/// warm and cold Newton stages run in lockstep over the batched kernel —
/// one restamp sweep per iteration, one SoA factor/solve for all still-
/// active lanes — and lanes retire independently the moment they converge.
/// Lanes that exhaust the cold stage run the homotopy chain (gmin stepping,
/// then source stepping) one at a time, as one-lane passes. Per-lane
/// results, convergence outcomes and Newton iteration counts are identical
/// to a one-lane call per lane with `options[lane]`, whatever the other
/// lanes. `options[lane].workspace` is ignored (the shared `ws` is used);
/// `warm_start` and `initial_node_v` are honoured per lane.
std::vector<util::Expected<OpPoint>> solve_op_batch(
    const std::vector<const Circuit*>& circuits,
    const std::vector<DcOptions>& options, SimWorkspace& ws);

}  // namespace autockt::spice
