#pragma once
// Small-signal noise analysis via the adjoint (interreciprocal) method:
// one transposed solve per frequency yields the transfer from every internal
// noise current source to the probe, so cost is independent of the number of
// noise sources.

#include <vector>

#include "spice/circuit.hpp"
#include "spice/workspace.hpp"
#include "util/expected.hpp"

namespace autockt::spice {

struct NoiseOptions {
  double f_start = 1e3;
  double f_stop = 1e10;
  int points_per_decade = 5;
  /// Reusable workspace; temporary per call when null.
  SimWorkspace* workspace = nullptr;
};

struct NoiseResult {
  std::vector<double> freq;      // Hz
  std::vector<double> out_psd;   // V^2/Hz at the probe
  double total_output_v2 = 0.0;  // integrated output noise power (V^2)

  double total_output_vrms() const;
};

/// Output-referred noise at probe_p - probe_m over the sweep band, a
/// one-lane noise_sweep_batch().
util::Expected<NoiseResult> noise_sweep(const Circuit& circuit,
                                        const OpPoint& op, NodeId probe_p,
                                        NodeId probe_m,
                                        const NoiseOptions& options = {});

/// Batched noise sweeps over K circuits sharing one topology: the adjoint
/// stimulus is common to all lanes, so every frequency point is one batched
/// refactorization + one batched transposed solve. Per-lane results are
/// identical to noise_sweep(). `options.workspace` is ignored (the shared
/// `ws` is used).
std::vector<util::Expected<NoiseResult>> noise_sweep_batch(
    const std::vector<const Circuit*>& circuits,
    const std::vector<const OpPoint*>& ops, NodeId probe_p, NodeId probe_m,
    const NoiseOptions& options, SimWorkspace& ws);

}  // namespace autockt::spice
