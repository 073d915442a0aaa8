#pragma once
// Two-stage Miller-compensated operational amplifier (paper Fig. 6) in the
// ptm45-like planar card.
//
// Stage 1: NMOS differential pair (M1/M2) with PMOS mirror load (M3/M4) and
// NMOS tail source (M5). Stage 2: PMOS common-source (M6) with NMOS current
// sink (M7). Bias: NMOS diode (M8) fed from a supply resistor; M5/M7 mirror
// it. Miller capacitor Cc couples the stages; fixed load capacitance.
//
// Paper action space: every transistor width in [1, 100, 1] * 0.5 um and
// Cc in [0.1, 10.0, 0.1] pF — 10^14 combinations with the six independent
// widths (pairs share a width). Specs: gain, UGBW, phase margin >= 60 deg,
// and bias current (minimized power proxy).
//
// Open-loop biasing uses the standard simulation servo: a huge RC feedback
// (1 GOhm / 10 uF) from output to the inverting input centers the DC
// operating point while leaving the AC response open-loop above ~1 Hz —
// exactly the practice an analog designer uses in Spectre.

#include "circuits/sizing_problem.hpp"
#include "pex/parasitics.hpp"
#include "spice/circuit.hpp"
#include "util/expected.hpp"

namespace autockt::circuits {

struct TwoStageParams {
  double w12 = 10e-6;  // input pair width (m)
  double w34 = 10e-6;  // mirror load width
  double w5 = 10e-6;   // tail width
  double w6 = 20e-6;   // second-stage PMOS width
  double w7 = 10e-6;   // output sink width
  double w8 = 5e-6;    // bias diode width
  double cc = 2e-12;   // Miller compensation (F)
};

struct OpampResult {
  double gain = 0.0;              // V/V
  double ugbw = 0.0;              // Hz
  double phase_margin = 0.0;      // degrees
  double bias_current = 0.0;      // A (total supply draw)
  bool ugbw_found = false;
};

struct OpampBuildOptions {
  const pex::ParasiticModel* parasitics = nullptr;
  /// Warm-start slot threaded from the eval layer: read as the Newton
  /// stage-0 guess when valid, refreshed with the converged operating
  /// point on success.
  eval::OpHint* hint = nullptr;
};

spice::Circuit build_two_stage(const TwoStageParams& params,
                               const spice::TechCard& card,
                               const OpampBuildOptions& options = {});

/// One design: a one-lane simulate_two_stage_batch() call.
util::Expected<OpampResult> simulate_two_stage(
    const TwoStageParams& params, const spice::TechCard& card,
    const OpampBuildOptions& options = {});

/// Characterization of K design points of the same topology as lanes of
/// one pipeline (circuits/lanes.hpp: lockstep DC Newton + batched AC
/// sweep). Per-lane results are bitwise those of a one-lane call. `hints`
/// may be empty (no warm starts) or hold one (possibly null) hint per
/// design; `options.hint` is ignored.
std::vector<util::Expected<OpampResult>> simulate_two_stage_batch(
    const std::vector<TwoStageParams>& params, const spice::TechCard& card,
    const OpampBuildOptions& options = {},
    const std::vector<eval::OpHint*>& hints = {});

TwoStageParams two_stage_params_from_grid(const std::vector<ParamDef>& defs,
                                          const ParamVector& idx);

}  // namespace autockt::circuits
