#include "circuits/lanes.hpp"

namespace autockt::circuits {

std::vector<util::Expected<LaneResult>> characterize_lanes(
    const std::vector<const spice::Circuit*>& circuits,
    std::vector<spice::DcOptions> dc, const std::vector<eval::OpHint*>& hints,
    const LanePlan& plan, spice::SimWorkspace& ws) {
  using namespace spice;
  const std::size_t K = circuits.size();
  const auto hint_of = [&](std::size_t l) -> eval::OpHint* {
    return l < hints.size() ? hints[l] : nullptr;
  };

  std::vector<OpPoint> warm(K);  // must outlive the DC solve
  for (std::size_t l = 0; l < K; ++l) {
    const eval::OpHint* hint = hint_of(l);
    if (hint != nullptr && hint->valid) {
      warm[l].node_v = hint->node_v;
      warm[l].branch_i = hint->branch_i;
      dc[l].warm_start = &warm[l];
    }
  }
  std::vector<util::Expected<OpPoint>> ops = solve_op_batch(circuits, dc, ws);

  // Compact the converged lanes into the batched sweeps; DC failures keep
  // their error and never occupy a sweep lane.
  std::vector<util::Expected<LaneResult>> results;
  results.reserve(K);
  std::vector<std::size_t> live;
  std::vector<const Circuit*> live_ckts;
  for (std::size_t l = 0; l < K; ++l) {
    if (!ops[l].ok()) {
      results.push_back(ops[l].error());
      continue;
    }
    if (eval::OpHint* hint = hint_of(l)) {
      hint->node_v = ops[l]->node_v;
      hint->branch_i = ops[l]->branch_i;
      hint->valid = true;
    }
    results.push_back(LaneResult{std::move(*ops[l]), {}, 0.0});
    live.push_back(l);
    live_ckts.push_back(circuits[l]);
  }
  if (live.empty()) return results;
  std::vector<const OpPoint*> live_ops;
  live_ops.reserve(live.size());
  for (const std::size_t l : live) live_ops.push_back(&results[l]->op);

  std::vector<util::Expected<std::vector<AcPoint>>> sweeps;
  if (plan.ac) {
    sweeps = ac_sweep_batch(live_ckts, live_ops, plan.ac_probe, kGround,
                            *plan.ac, ws);
  }
  std::vector<util::Expected<NoiseResult>> noises;
  if (plan.noise) {
    noises = noise_sweep_batch(live_ckts, live_ops, plan.noise_probe, kGround,
                               *plan.noise, ws);
  }
  // Both sweeps read the lanes' operating points, so errors land only now.
  for (std::size_t s = 0; s < live.size(); ++s) {
    util::Expected<LaneResult>& lane = results[live[s]];
    if (plan.ac) {
      if (!sweeps[s].ok()) {
        lane = sweeps[s].error();
        continue;
      }
      lane->ac = measure_ac(*sweeps[s]);
    }
    if (plan.noise) {
      if (!noises[s].ok()) {
        lane = noises[s].error();
        continue;
      }
      lane->noise_vrms = noises[s]->total_output_vrms();
    }
  }
  return results;
}

}  // namespace autockt::circuits
