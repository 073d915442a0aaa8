#include "eval/function_backend.hpp"

#include <chrono>
#include <exception>

#include "trace/names.hpp"
#include "trace/trace.hpp"

namespace autockt::eval {

EvalResult FunctionBackend::do_evaluate(const ParamVector& params,
                                        SimHint* hint) {
  if (batch_fn_ != nullptr) {
    return std::move(do_evaluate_batch({params}, {hint}).at(0));
  }
  trace::TraceSpan span(trace::names::kEvalSimulate);
  const auto t0 = std::chrono::steady_clock::now();
  OpHint* op_hint = hint != nullptr ? &hint->slot(0) : nullptr;
  EvalResult result = [&]() -> EvalResult {
    try {
      return fn_(params, op_hint);
    } catch (const std::exception& e) {
      return util::Error{std::string("evaluator threw: ") + e.what(), -1};
    } catch (...) {
      return util::Error{"evaluator threw a non-std exception", -1};
    }
  }();
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  counters_.add_simulations(1, dt.count());
  return result;
}

std::vector<EvalResult> FunctionBackend::do_evaluate_batch(
    const std::vector<ParamVector>& points,
    const std::vector<SimHint*>& hints) {
  if (batch_fn_ == nullptr) {
    // No batched simulator: inherit the serial-loop semantics.
    return EvalBackend::do_evaluate_batch(points, hints);
  }
  trace::TraceSpan span(trace::names::kEvalSimulate);
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t sims = sims_per_point_;
  std::vector<OpHint*> op_hints(points.size() * sims, nullptr);
  for (std::size_t i = 0; i < points.size(); ++i) {
    SimHint* hint = hint_at(hints, i);
    if (hint == nullptr) continue;
    hint->slot(sims - 1);  // size once: the slot pointers below stay valid
    for (std::size_t c = 0; c < sims; ++c) {
      op_hints[i * sims + c] = &hint->ops[c];
    }
  }
  std::vector<EvalResult> results = [&]() -> std::vector<EvalResult> {
    try {
      return batch_fn_(points, op_hints);
    } catch (const std::exception& e) {
      return std::vector<EvalResult>(
          points.size(),
          EvalResult(util::Error{std::string("evaluator threw: ") + e.what(),
                                 -1}));
    } catch (...) {
      return std::vector<EvalResult>(
          points.size(),
          EvalResult(util::Error{"evaluator threw a non-std exception", -1}));
    }
  }();
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  counters_.add_simulations(static_cast<long>(points.size() * sims),
                            dt.count());
  return results;
}

}  // namespace autockt::eval
