#pragma once
// Fixed-step trapezoidal transient analysis. Capacitive elements reported by
// the devices are integrated via companion models whose state (branch
// voltage and current history) is owned by the engine, keeping devices
// stateless and circuit evaluation thread-safe.
//
// A step's state depends only on the state before it and the stamps at its
// time. So once an accepted state equals, bit for bit, the state two steps
// back, and every device stamps the same values over the following steps
// (Device::stamps_constant_between), the engine records those steps as the
// two alternating states without solving them, and resumes Newton at the
// next step whose stamps differ (a source edge). Results are bitwise those
// of solving every step.

#include <vector>

#include "spice/circuit.hpp"
#include "spice/workspace.hpp"
#include "util/expected.hpp"

namespace autockt::spice {

struct TranOptions {
  double t_stop = 1e-9;
  double dt = 1e-12;
  int max_newton = 60;
  double v_abstol = 1e-7;
  double v_reltol = 1e-6;
  double max_step = 0.5;  // Newton damping per iteration (V)
  /// Reusable workspace; temporary per call when null. Each Newton
  /// iteration is a one-lane pass on it.
  SimWorkspace* workspace = nullptr;
};

struct TranResult {
  std::vector<double> time;
  /// waveforms[p][k] = voltage of probes[p] at time[k].
  std::vector<std::vector<double>> waveforms;
};

/// Integrate from the given initial operating point (typically solve_op of
/// the same circuit with sources at their t=0 values).
util::Expected<TranResult> transient(const Circuit& circuit,
                                     const OpPoint& initial,
                                     const std::vector<NodeId>& probes,
                                     const TranOptions& options = {});

}  // namespace autockt::spice
