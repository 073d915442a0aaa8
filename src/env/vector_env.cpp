#include "env/vector_env.hpp"

#include <stdexcept>

#include "trace/names.hpp"
#include "trace/trace.hpp"

namespace autockt::env {

using circuits::ParamVector;

VectorSizingEnv::VectorSizingEnv(
    std::shared_ptr<const circuits::SizingProblem> problem, EnvConfig config,
    int num_lanes)
    : problem_(std::move(problem)) {
  if (!problem_) throw std::invalid_argument("VectorSizingEnv: null problem");
  if (num_lanes <= 0) {
    throw std::invalid_argument("VectorSizingEnv: num_lanes must be >= 1");
  }
  lanes_.reserve(static_cast<std::size_t>(num_lanes));
  for (int i = 0; i < num_lanes; ++i) lanes_.emplace_back(problem_, config);
  rngs_.resize(static_cast<std::size_t>(num_lanes));
  running_.assign(static_cast<std::size_t>(num_lanes), 0);
  seed_lanes(0xa0c0c0de2020ULL);
}

std::size_t VectorSizingEnv::check_lane(int lane) const {
  if (lane < 0 || lane >= num_lanes()) {
    throw std::out_of_range("VectorSizingEnv: lane index out of range");
  }
  return static_cast<std::size_t>(lane);
}

void VectorSizingEnv::seed_lanes(std::uint64_t base_seed) {
  // Per-lane seeds are a function of (base_seed, lane) only, so a lane's
  // stream never depends on how many lanes exist.
  for (int i = 0; i < num_lanes(); ++i) {
    seed_lane(i, util::stream_seed(base_seed, static_cast<std::uint64_t>(i)));
  }
}

void VectorSizingEnv::seed_lane(int lane, std::uint64_t seed) {
  rngs_[check_lane(lane)].reseed(seed);
}

void VectorSizingEnv::set_target_sampler(TargetSampler sampler) {
  target_sampler_ = std::move(sampler);
  spec_sampler_.reset();
  report_outcomes_ = false;
}

void VectorSizingEnv::set_target_sampler(
    std::shared_ptr<spec::TargetSampler> sampler, bool report_outcomes) {
  if (!sampler) {
    clear_target_sampler();
    return;
  }
  spec_sampler_ = std::move(sampler);
  report_outcomes_ = report_outcomes;
  target_sampler_ = [s = spec_sampler_](int /*lane*/, util::Rng& rng) {
    return s->sample(rng);
  };
}

void VectorSizingEnv::clear_target_sampler() {
  target_sampler_ = nullptr;
  spec_sampler_.reset();
  report_outcomes_ = false;
}

void VectorSizingEnv::set_target(int lane, circuits::SpecVector target) {
  lanes_[check_lane(lane)].set_target(std::move(target));
}

int VectorSizingEnv::running_count() const {
  int n = 0;
  for (char r : running_) n += r ? 1 : 0;
  return n;
}

std::vector<std::vector<double>> VectorSizingEnv::reset_all() {
  std::vector<int> all(static_cast<std::size_t>(num_lanes()));
  for (int i = 0; i < num_lanes(); ++i) all[static_cast<std::size_t>(i)] = i;
  return do_reset(all);
}

std::vector<std::vector<double>> VectorSizingEnv::reset_lanes(
    const std::vector<int>& lanes) {
  return do_reset(lanes);
}

std::vector<std::vector<double>> VectorSizingEnv::do_reset(
    const std::vector<int>& lanes) {
  trace::TraceSpan span(trace::names::kEnvReset);
  std::vector<ParamVector> points;
  std::vector<eval::SimHint*> hints;
  points.reserve(lanes.size());
  hints.reserve(lanes.size());
  for (int i : lanes) {
    const std::size_t li = check_lane(i);
    if (target_sampler_) {
      lanes_[li].set_target(target_sampler_(i, rngs_[li]));
    }
    points.push_back(lanes_[li].begin_reset());
    hints.push_back(lanes_[li].pending_hint());
  }
  auto results = problem_->evaluate_batch(points, hints);
  std::vector<std::vector<double>> obs;
  obs.reserve(lanes.size());
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    const std::size_t li = static_cast<std::size_t>(lanes[k]);
    obs.push_back(lanes_[li].finish_reset(std::move(results[k])));
    running_[li] = 1;
  }
  return obs;
}

std::vector<VectorSizingEnv::LaneStep> VectorSizingEnv::step_all(
    const std::vector<std::vector<int>>& actions,
    const std::function<bool(int lane)>& continue_lane) {
  if (actions.size() != static_cast<std::size_t>(num_lanes())) {
    throw std::invalid_argument("VectorSizingEnv: actions size mismatch");
  }
  // Covers all three phases, so phase-3 auto-resets appear as nested
  // env/reset spans under the tick.
  trace::TraceSpan span(trace::names::kEnvTick);
  // Phase 1: apply actions on running lanes and gather pending points
  // (and each lane's warm-start slot — distinct objects, since the leaf
  // writes each point's slots).
  std::vector<int> stepped;
  std::vector<ParamVector> points;
  std::vector<eval::SimHint*> hints;
  stepped.reserve(lanes_.size());
  points.reserve(lanes_.size());
  hints.reserve(lanes_.size());
  for (int i = 0; i < num_lanes(); ++i) {
    const std::size_t li = static_cast<std::size_t>(i);
    if (!running_[li]) continue;
    points.push_back(lanes_[li].begin_step(actions[li]));
    hints.push_back(lanes_[li].pending_hint());
    stepped.push_back(i);
  }

  // Phase 2: one batched evaluation for every stepped lane.
  auto results = problem_->evaluate_batch(points, hints);

  std::vector<LaneStep> out(lanes_.size());
  std::vector<int> to_reset;
  for (std::size_t k = 0; k < stepped.size(); ++k) {
    const int i = stepped[k];
    const std::size_t li = static_cast<std::size_t>(i);
    SizingEnv::StepResult sr = lanes_[li].finish_step(std::move(results[k]));
    if (sr.done && report_outcomes_) {
      // The lane's target is still the finished episode's target here (the
      // auto-reset that may replace it happens in phase 3 below).
      spec_sampler_->record_outcome(lanes_[li].target(), sr.goal_met);
    }
    LaneStep& ls = out[li];
    ls.stepped = true;
    ls.reward = sr.reward;
    ls.done = sr.done;
    ls.goal_met = sr.goal_met;
    if (sr.done) {
      ls.final_obs = sr.obs;
      if (!continue_lane || continue_lane(i)) {
        to_reset.push_back(i);
      } else {
        running_[li] = 0;
        ls.obs = std::move(sr.obs);
      }
    } else {
      ls.obs = std::move(sr.obs);
    }
  }

  // Phase 3: batched auto-reset of every lane whose episode just ended.
  if (!to_reset.empty()) {
    auto fresh = do_reset(to_reset);
    for (std::size_t k = 0; k < to_reset.size(); ++k) {
      out[static_cast<std::size_t>(to_reset[k])].obs = std::move(fresh[k]);
    }
  }
  return out;
}

}  // namespace autockt::env
