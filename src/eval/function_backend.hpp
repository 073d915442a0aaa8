#pragma once
// FunctionBackend: the leaf of every backend stack — adapts a plain
// simulator callable (the lambdas the problem factories build) into the
// EvalBackend interface, charging each call to the simulation counter and
// the simulator wall-time clock. Exceptions escaping the callable are
// converted to Error results so one bad design point cannot take down a
// batch worker.

#include <cstddef>
#include <string>
#include <utility>

#include "eval/backend.hpp"

namespace autockt::eval {

class FunctionBackend : public EvalBackend {
 public:
  explicit FunctionBackend(EvalFn fn, std::string name = "function")
      : fn_([f = std::move(fn)](const ParamVector& p, OpHint*) {
          return f(p);
        }),
        name_(std::move(name)) {}

  /// Hint-aware callable: receives the caller's warm-start slot (slot 0 of
  /// the threaded SimHint; null on cold starts).
  explicit FunctionBackend(HintedEvalFn fn, std::string name = "function")
      : fn_(std::move(fn)), name_(std::move(name)) {}

  /// Batch leaf: a whole batch is ONE `batch_fn` invocation (lanes of the
  /// simulation pipeline) and a single point is a one-lane call of it.
  /// One point costs `sims_per_point` simulations (the PEX flow: one per
  /// PVT corner), and `batch_fn` gets that many warm-start slots per point,
  /// point-major: slot c of point p is hints[p * sims_per_point + c].
  explicit FunctionBackend(BatchEvalFn batch_fn,
                           std::string name = "function",
                           std::size_t sims_per_point = 1)
      : batch_fn_(std::move(batch_fn)),
        name_(std::move(name)),
        sims_per_point_(sims_per_point) {}

  std::string name() const override { return name_; }

 protected:
  EvalResult do_evaluate(const ParamVector& params, SimHint* hint) override;

  std::vector<EvalResult> do_evaluate_batch(
      const std::vector<ParamVector>& points,
      const std::vector<SimHint*>& hints) override;

 private:
  HintedEvalFn fn_;
  BatchEvalFn batch_fn_;
  std::string name_;
  std::size_t sims_per_point_ = 1;
};

}  // namespace autockt::eval
