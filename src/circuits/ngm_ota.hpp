#pragma once
// Two-stage OTA with negative-gm load (paper Fig. 9) in the finfet16-like
// quantized-width card.
//
// Stage 1: NMOS differential pair with PMOS diode-connected loads AND a
// PMOS cross-coupled pair. The cross-coupled pair injects negative
// transconductance that partially cancels the diode load, boosting gain via
// positive feedback — which also makes the circuit latch when the
// cross-coupled devices are oversized. This is exactly why the paper calls
// the topology "more challenging to design and more sensitive to layout
// parasitics". Stage 2: PMOS common-source with NMOS mirror sink.
//
// All widths are fin counts (quantized); ~1e11 parameter combinations.
// Specs: gain, UGBW, phase margin (target sampled in [60, 75] deg for
// transfer-learning robustness, per paper Section III-C/D).

#include "circuits/sizing_problem.hpp"
#include "pex/parasitics.hpp"
#include "spice/circuit.hpp"
#include "util/expected.hpp"

namespace autockt::circuits {

struct NgmParams {
  int nf_in = 20;     // diff-pair fins
  int nf_diode = 16;  // diode load fins
  int nf_cross = 8;   // cross-coupled (negative gm) fins
  int nf_tail = 24;   // tail source fins
  int nf_cs = 40;     // second-stage PMOS fins
  int nf_sink = 20;   // second-stage sink fins
  double cc = 0.5e-12;  // Miller compensation (F)
};

struct NgmResult {
  double gain = 0.0;          // V/V
  double ugbw = 0.0;          // Hz
  double phase_margin = 0.0;  // degrees
  double bias_current = 0.0;  // A (diagnostic)
  bool ugbw_found = false;
};

struct NgmBuildOptions {
  const pex::ParasiticModel* parasitics = nullptr;
  /// Warm-start slot threaded from the eval layer: read as the Newton
  /// stage-0 guess when valid, refreshed with the converged operating
  /// point on success.
  eval::OpHint* hint = nullptr;
};

spice::Circuit build_ngm_ota(const NgmParams& params,
                             const spice::TechCard& card,
                             const NgmBuildOptions& options = {});

/// One design: a one-lane simulate_ngm_ota_batch() call.
util::Expected<NgmResult> simulate_ngm_ota(const NgmParams& params,
                                           const spice::TechCard& card,
                                           const NgmBuildOptions& options = {});

/// Characterization of K design points as lanes of one pipeline
/// (circuits/lanes.hpp: lockstep DC Newton + batched AC sweep); per-lane
/// results are bitwise those of a one-lane call. `cards[l]` is lane l's
/// technology card: PVT corners differ only in their card, so they share
/// the topology's workspace and run as lanes of one call. `hints` may be
/// empty or hold one (possibly null) hint per design; `options.hint` is
/// ignored.
std::vector<util::Expected<NgmResult>> simulate_ngm_ota_batch(
    const std::vector<NgmParams>& params,
    const std::vector<spice::TechCard>& cards,
    const NgmBuildOptions& options = {},
    const std::vector<eval::OpHint*>& hints = {});

NgmParams ngm_params_from_grid(const std::vector<ParamDef>& defs,
                               const ParamVector& idx);

}  // namespace autockt::circuits
