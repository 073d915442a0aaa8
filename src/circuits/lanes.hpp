#pragma once
// The one characterization pipeline behind every builtin circuit and the
// deck evaluator. K designs of one topology run as lanes through a shared
// workspace:
//
//   warm-start hints -> lockstep DC -> compaction of the converged lanes
//   -> batched AC / noise sweeps -> per-lane measurement
//
// A single design is a one-lane batch, and the kernel runs one lane on a
// copy of its loops built for that lane count. Work that depends on a
// lane's own measurements (the TIA's settling transient, a deck's .tran) is
// a per-lane tail the caller runs afterwards, one-lane pass by pass.
//
// Hint contract: a valid hint is read as the DC Newton stage-0 guess; a
// converged lane overwrites it with its operating point, a failed one
// leaves it untouched so the next evaluation warm-starts from the last
// GOOD operating point.

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "eval/types.hpp"
#include "spice/ac.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/measure.hpp"
#include "spice/noise.hpp"
#include "spice/workspace.hpp"
#include "util/expected.hpp"

namespace autockt::circuits {

/// The small-signal analyses every lane runs after its DC solve.
struct LanePlan {
  std::optional<spice::AcOptions> ac;  // measured with spice::measure_ac
  spice::NodeId ac_probe = spice::kGround;
  std::optional<spice::NoiseOptions> noise;
  spice::NodeId noise_probe = spice::kGround;
};

/// A lane that converged and got through every planned sweep.
struct LaneResult {
  spice::OpPoint op;
  spice::AcMeasurements ac;  // default without a planned AC sweep
  double noise_vrms = 0.0;   // 0 without a planned noise sweep
};

/// Runs the pipeline over `circuits` (all compatible with `ws`). `dc[l]` is
/// lane l's cold-start options; `hints` is empty or holds one (possibly
/// null) hint per lane. A lane's error is the first stage that stopped it:
/// DC, then AC, then noise.
std::vector<util::Expected<LaneResult>> characterize_lanes(
    const std::vector<const spice::Circuit*>& circuits,
    std::vector<spice::DcOptions> dc, const std::vector<eval::OpHint*>& hints,
    const LanePlan& plan, spice::SimWorkspace& ws);

/// characterize_lanes(), then `finish(lane, const LaneResult&)` -> R or
/// Expected<R> for every lane that got through; failed lanes keep their
/// error.
template <typename R, typename Finish>
std::vector<util::Expected<R>> run_lanes(
    const std::vector<const spice::Circuit*>& circuits,
    std::vector<spice::DcOptions> dc, const std::vector<eval::OpHint*>& hints,
    const LanePlan& plan, spice::SimWorkspace& ws, Finish&& finish) {
  std::vector<util::Expected<LaneResult>> lanes =
      characterize_lanes(circuits, std::move(dc), hints, plan, ws);
  std::vector<util::Expected<R>> out;
  out.reserve(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    if (lanes[l].ok()) {
      out.push_back(finish(l, *lanes[l]));
    } else {
      out.push_back(lanes[l].error());
    }
  }
  return out;
}

}  // namespace autockt::circuits
