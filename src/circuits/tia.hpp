#pragma once
// Transimpedance amplifier (paper Fig. 4): self-biased CMOS inverter with a
// resistive feedback ladder, driven by a photodiode modeled as a current
// source with junction capacitance. Technology: ptm45-like planar card.
//
// Paper action space (array notation [start, end, increment]):
//   per transistor:   width [2, 10, 2] um, multiplier [2, 32, 2]
//   feedback ladder:  resistors in series [2, 20, 2], in parallel [1, 20, 1]
//   unit resistance:  5.6 kOhm
// Specs: settling time, -3 dB cutoff frequency, input-referred noise.

#include "circuits/sizing_problem.hpp"
#include "pex/parasitics.hpp"
#include "spice/circuit.hpp"
#include "util/expected.hpp"

namespace autockt::circuits {

struct TiaParams {
  double wn = 4e-6;    // NMOS finger width (m)
  int mn = 8;          // NMOS multiplier
  double wp = 4e-6;    // PMOS finger width (m)
  int mp = 8;          // PMOS multiplier
  int n_series = 4;    // feedback units in series
  int n_parallel = 2;  // feedback strings in parallel

  static constexpr double kUnitResistance = 5.6e3;  // Ohms (paper)

  double feedback_resistance() const {
    return kUnitResistance * static_cast<double>(n_series) /
           static_cast<double>(n_parallel);
  }
};

struct TiaResult {
  double settling_time = 0.0;   // s, 2% band of the step response
  double cutoff_freq = 0.0;     // Hz, -3 dB of the transimpedance
  double input_noise = 0.0;     // Vrms equivalent at the input
  double supply_current = 0.0;  // A (diagnostic; not a paper spec)
};

struct TiaBuildOptions {
  const pex::ParasiticModel* parasitics = nullptr;
  /// Photodiode current stimulus; null means DC 0 A with unit AC magnitude
  /// (the small-signal measurement build). The transient settling run
  /// rebuilds the SAME netlist with a step waveform here, which is what
  /// lets the two builds share one workspace pattern by construction.
  const spice::Waveform* input_stimulus = nullptr;
  /// Warm-start slot threaded from the eval layer: read as the Newton
  /// stage-0 guess when valid, refreshed with the converged operating
  /// point on success.
  eval::OpHint* hint = nullptr;
};

/// Build the netlist (exposed for tests and examples).
spice::Circuit build_tia(const TiaParams& params, const spice::TechCard& card,
                         const TiaBuildOptions& options = {});

/// Full evaluation of one design (DC, AC, noise and transient step
/// response): a one-lane simulate_tia_batch() call.
util::Expected<TiaResult> simulate_tia(const TiaParams& params,
                                       const spice::TechCard& card,
                                       const TiaBuildOptions& options = {});

/// Characterization of K design points as lanes of one pipeline
/// (circuits/lanes.hpp): lockstep DC Newton, batched AC and noise sweeps.
/// The transient settling run is a per-lane tail (each lane's window and
/// step size depend on its own measured bandwidth). Per-lane results are
/// bitwise those of a one-lane call. `hints` may be empty or hold one
/// (possibly null) hint per design; `options.hint` is ignored.
std::vector<util::Expected<TiaResult>> simulate_tia_batch(
    const std::vector<TiaParams>& params, const spice::TechCard& card,
    const TiaBuildOptions& options = {},
    const std::vector<eval::OpHint*>& hints = {});

/// Map a SizingProblem grid point to physical TIA parameters.
TiaParams tia_params_from_grid(const std::vector<ParamDef>& defs,
                               const ParamVector& idx);

}  // namespace autockt::circuits
