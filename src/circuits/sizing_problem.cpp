#include "circuits/sizing_problem.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "eval/function_backend.hpp"
#include "spice/workspace.hpp"

namespace autockt::circuits {

namespace {
constexpr double kDenominatorGuard = 1e-12;
}

void SpecDef::validate() const {
  const std::string who = "SpecDef '" + (name.empty() ? "<unnamed>" : name);
  if (std::isnan(sample_lo) || std::isnan(sample_hi)) {
    throw std::invalid_argument(who + "': NaN sampling bound");
  }
  if (sample_hi < sample_lo) {
    throw std::invalid_argument(
        who + "': sample_hi (" + std::to_string(sample_hi) +
        ") < sample_lo (" + std::to_string(sample_lo) + ")");
  }
  if (std::isnan(norm_const) || norm_const <= 0.0) {
    throw std::invalid_argument(
        who + "': norm_const must be positive (got " +
        std::to_string(norm_const) + ")");
  }
  if (std::isnan(fail_value)) {
    throw std::invalid_argument(who + "': NaN fail_value");
  }
}

double SpecDef::rel(double observed, double target) const {
  const double denom =
      std::fabs(observed) + std::fabs(target) + kDenominatorGuard;
  switch (sense) {
    case SpecSense::GreaterEq:
      return (observed - target) / denom;
    case SpecSense::LessEq:
    case SpecSense::Minimize:
      return (target - observed) / denom;
  }
  return 0.0;
}

double lookup_norm(double value, double g) {
  const double denom = std::fabs(value) + std::fabs(g) + kDenominatorGuard;
  return (value - g) / denom;
}

util::Expected<SpecVector> SizingProblem::evaluate(
    const ParamVector& params, eval::SimHint* hint) const {
  if (!backend) {
    return util::Error{"SizingProblem '" + name + "': no evaluation backend",
                       -1};
  }
  return backend->evaluate(params, hint);
}

std::vector<util::Expected<SpecVector>> SizingProblem::evaluate_batch(
    const std::vector<ParamVector>& points,
    const std::vector<eval::SimHint*>& hints) const {
  if (!backend) {
    return std::vector<util::Expected<SpecVector>>(
        points.size(),
        util::Expected<SpecVector>(util::Error{
            "SizingProblem '" + name + "': no evaluation backend", -1}));
  }
  return backend->evaluate_batch(points, hints);
}

void SizingProblem::set_evaluator(eval::EvalFn fn, std::string backend_name) {
  backend = std::make_shared<eval::FunctionBackend>(std::move(fn),
                                                    std::move(backend_name));
}

eval::EvalStats SizingProblem::eval_stats() const {
  eval::EvalStats stats = backend ? backend->stats() : eval::EvalStats{};
  // Merge the simulation-kernel counters. These are process-wide (the
  // workspace registry is shared by every problem), so with several live
  // problems the kernel columns report whole-process activity; reset via
  // reset_eval_stats() or difference with since() per experiment. Added
  // (not assigned) because a ProcessPoolBackend stack already carries the
  // kernel counters of its worker processes in backend->stats() — in that
  // configuration the parent-local counters below stay zero.
  const spice::KernelStats kernel = spice::kernel_stats_snapshot();
  stats.newton_iterations += kernel.newton_iterations;
  stats.symbolic_factorizations += kernel.symbolic_factorizations;
  stats.numeric_factorizations += kernel.numeric_factorizations;
  stats.dense_fallbacks += kernel.dense_fallbacks;
  stats.warm_start_attempts += kernel.warm_start_attempts;
  stats.warm_start_hits += kernel.warm_start_hits;
  stats.batch_refactorizations += kernel.batch_refactorizations;
  stats.batch_lanes += kernel.batch_lanes;
  stats.batch_lane_fallbacks += kernel.batch_lane_fallbacks;
  return stats;
}

void SizingProblem::reset_eval_stats() const {
  if (backend) backend->reset_stats();
  spice::reset_kernel_stats();
}

void SizingProblem::validate() const {
  for (const SpecDef& s : specs) {
    try {
      s.validate();
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("SizingProblem '" + name +
                                  "': " + e.what());
    }
  }
}

double SizingProblem::action_space_log10() const {
  double acc = 0.0;
  for (const ParamDef& p : params) {
    acc += std::log10(static_cast<double>(p.grid_size()));
  }
  return acc;
}

ParamVector SizingProblem::center_params() const {
  ParamVector out;
  out.reserve(params.size());
  for (const ParamDef& p : params) out.push_back(p.grid_size() / 2);
  return out;
}

SpecVector SizingProblem::fail_specs() const {
  SpecVector out;
  out.reserve(specs.size());
  for (const SpecDef& s : specs) out.push_back(s.fail_value);
  return out;
}

bool SizingProblem::valid_params(const ParamVector& p) const {
  if (p.size() != params.size()) return false;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] < 0 || p[i] >= params[i].grid_size()) return false;
  }
  return true;
}

std::vector<double> SizingProblem::param_values(const ParamVector& p) const {
  std::vector<double> out;
  out.reserve(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    out.push_back(params[i].value(p[i]));
  }
  return out;
}

double SizingProblem::reward_eq1(const SpecVector& observed,
                                 const SpecVector& target) const {
  double r = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const double rel = specs[i].rel(observed[i], target[i]);
    if (specs[i].sense == SpecSense::Minimize) {
      r += rel;  // unclamped: keeps rewarding reductions below the budget
    } else {
      r += std::min(rel, 0.0);
    }
  }
  return r;
}

double SizingProblem::hard_violation(const SpecVector& observed,
                                     const SpecVector& target) const {
  double r = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    r += std::min(specs[i].rel(observed[i], target[i]), 0.0);
  }
  return r;
}

SpecVector worst_case_fold(const std::vector<SpecDef>& specs,
                           const std::vector<SpecVector>& corner_results) {
  SpecVector out(specs.size(), 0.0);
  for (std::size_t s = 0; s < specs.size(); ++s) {
    double worst = corner_results.front()[s];
    for (const SpecVector& corner : corner_results) {
      if (specs[s].sense == SpecSense::GreaterEq) {
        worst = std::min(worst, corner[s]);
      } else {
        worst = std::max(worst, corner[s]);
      }
    }
    out[s] = worst;
  }
  return out;
}

std::vector<util::Expected<SpecVector>> fold_corner_lanes(
    const std::vector<SpecDef>& specs,
    std::vector<util::Expected<SpecVector>> lanes, std::size_t corners) {
  std::vector<util::Expected<SpecVector>> out;
  out.reserve(lanes.size() / corners);
  std::vector<SpecVector> point;
  for (std::size_t first = 0; first + corners <= lanes.size();
       first += corners) {
    point.clear();
    while (point.size() < corners && lanes[first + point.size()].ok()) {
      point.push_back(std::move(*lanes[first + point.size()]));
    }
    if (point.size() == corners) {
      out.push_back(worst_case_fold(specs, point));
    } else {
      out.push_back(lanes[first + point.size()].error());
    }
  }
  return out;
}

}  // namespace autockt::circuits
