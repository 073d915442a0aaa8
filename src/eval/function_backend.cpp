#include "eval/function_backend.hpp"

#include <chrono>
#include <exception>

#include "trace/names.hpp"
#include "trace/trace.hpp"

namespace autockt::eval {

EvalResult FunctionBackend::do_evaluate(const ParamVector& params,
                                        SimHint* hint) {
  trace::TraceSpan span(trace::names::kEvalSimulate);
  const auto t0 = std::chrono::steady_clock::now();
  OpHint* op_hint = hint != nullptr ? &hint->slot(0) : nullptr;
  EvalResult result = [&]() -> EvalResult {
    try {
      if (batch_fn_ != nullptr) {
        return std::move(batch_fn_({params}, {op_hint}).at(0));
      }
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
  std::vector<OpHint*> op_hints(points.size(), nullptr);
  for (std::size_t i = 0; i < points.size(); ++i) {
    SimHint* hint = hint_at(hints, i);
    if (hint != nullptr) op_hints[i] = &hint->slot(0);
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
  counters_.add_simulations(static_cast<long>(points.size()), dt.count());
  return results;
}

}  // namespace autockt::eval
