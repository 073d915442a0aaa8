#pragma once
// Internals shared by the real-valued Newton loops (DC and transient): the
// one-lane stamp-factor-solve round on the workspace kernel, and the
// convergence test on a Newton update.

#include <cmath>
#include <cstddef>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/workspace.hpp"

namespace autockt::spice::detail {

struct StampKnobs {
  double gmin = 0.0;
  double source_scale = 1.0;
  double time = 0.0;
  bool transient = false;
};

/// One design as a one-lane pass: stamp it, factor and solve into `x_out`.
/// `extra` stamps engine-level terms (transient companions) after the
/// circuit; pass kNoExtraStamps for DC. False when the matrix is singular.
template <typename Extra>
bool solve_one_lane(SimWorkspace& ws, const Circuit& circuit,
                    const std::vector<double>& node_v,
                    const StampKnobs& knobs, Extra&& extra,
                    std::vector<double>& x_out) {
  ws.begin_real(1);
  RealStamp ctx = ws.stamp_real(0, node_v);
  ctx.gmin = knobs.gmin;
  ctx.source_scale = knobs.source_scale;
  ctx.time = knobs.time;
  ctx.transient = knobs.transient;
  circuit.stamp_real(ctx);
  extra(ctx);
  if (!ws.factor_real()) return false;
  ws.solve_real();
  ws.real_lane_solution(0, x_out);
  return true;
}

inline constexpr auto kNoExtraStamps = [](RealStamp&) {};

/// The Newton convergence test on the undamped update `x_new` from `x`:
/// every node row (the first `node_rows` unknowns) moved by at most
/// abstol + reltol * |x_new|. An update with a non-finite unknown never
/// converges, so a NaN or infinite stamp cannot pass as a solution.
inline bool newton_converged(const std::vector<double>& x_new,
                             const std::vector<double>& x,
                             std::size_t node_rows, double abstol,
                             double reltol) {
  for (const double v : x_new) {
    if (!std::isfinite(v)) return false;
  }
  for (std::size_t i = 0; i < node_rows; ++i) {
    const double dv = std::fabs(x_new[i] - x[i]);
    const double tol = abstol + reltol * std::fabs(x_new[i]);
    if (!(dv <= tol)) return false;
  }
  return true;
}

}  // namespace autockt::spice::detail
