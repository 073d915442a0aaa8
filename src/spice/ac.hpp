#pragma once
// Small-signal AC analysis: complex MNA sweep around a converged DC
// operating point. The stimulus is whatever sources carry a nonzero ac_mag.
//
// The sweep is restamp-free: devices stamp the frequency-independent G and
// the capacitance C exactly once per operating point; every frequency point
// forms Y = G + j*omega*C and runs a numeric-only refactorization.

#include <complex>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/workspace.hpp"
#include "util/expected.hpp"

namespace autockt::spice {

struct AcPoint {
  double freq = 0.0;                     // Hz
  std::complex<double> value{0.0, 0.0};  // V(probe_p) - V(probe_m)
};

struct AcOptions {
  double f_start = 1e3;
  double f_stop = 1e11;
  int points_per_decade = 10;
  /// Reusable workspace; temporary per call when null.
  SimWorkspace* workspace = nullptr;
};

/// Log-spaced sweep of the probe voltage, a one-lane ac_sweep_batch(). Fails
/// if the AC matrix is singular at any frequency (which indicates a
/// malformed netlist).
util::Expected<std::vector<AcPoint>> ac_sweep(const Circuit& circuit,
                                              const OpPoint& op, NodeId probe_p,
                                              NodeId probe_m,
                                              const AcOptions& options = {});

/// Single-frequency full solution (all node voltages + branch currents).
util::Expected<std::vector<std::complex<double>>> ac_solve_at(
    const Circuit& circuit, const OpPoint& op, double freq,
    const AcOptions& options = {});

/// Batched sweep over K circuits sharing one topology (all compatible with
/// `ws`): each lane stamps G/C once, then every frequency point is one
/// batched refactorization + solve across all lanes. Per-lane results are
/// identical to ac_sweep() — a lane whose matrix goes singular gets that
/// lane's singular error while the other lanes complete.
/// `options.workspace` is ignored (the shared `ws` is used).
std::vector<util::Expected<std::vector<AcPoint>>> ac_sweep_batch(
    const std::vector<const Circuit*>& circuits,
    const std::vector<const OpPoint*>& ops, NodeId probe_p, NodeId probe_m,
    const AcOptions& options, SimWorkspace& ws);

}  // namespace autockt::spice
