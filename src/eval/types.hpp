#pragma once
// Foundational types of the evaluation-backend layer. The eval subsystem is
// the lowest layer that knows about "a point on the sizing grid" and "a
// vector of measured specifications"; the circuits layer aliases these so
// that both speak the same vocabulary without a circular dependency.

#include <functional>
#include <vector>

#include "util/expected.hpp"

namespace autockt::eval {

/// A design point expressed as discrete grid indices (the paper's
/// {x : 0 <= x_i < K} action space).
using ParamVector = std::vector<int>;

/// Observed specification values, aligned with the owning problem's specs.
using SpecVector = std::vector<double>;

/// One evaluation outcome: measured specs, or the simulator's error (e.g.
/// DC non-convergence) which callers map to per-spec fail values.
using EvalResult = util::Expected<SpecVector>;

/// Error code distinguishing evaluation-TRANSPORT failures (a pool worker
/// crashed, timed out, or returned a garbled reply) from simulator verdicts
/// (non-convergence etc.). Transport failures are transient properties of
/// the infrastructure, not of the design point: memo layers must never
/// cache a result carrying this code — a persistent store would otherwise
/// replay the spurious error forever instead of re-simulating.
inline constexpr int kTransportErrorCode = 70;

inline bool is_transport_error(const EvalResult& result) {
  return !result.ok() && result.error().code == kTransportErrorCode;
}

/// Warm-start state for ONE sub-simulation (one DC operating point): plain
/// vectors so the eval layer stays independent of the spice layer. The
/// simulator reads it as the Newton stage-0 guess and overwrites it with
/// the converged solution; `valid` gates the read.
struct OpHint {
  bool valid = false;
  std::vector<double> node_v;    // indexed by node id, [0] is ground
  std::vector<double> branch_i;  // indexed by branch number
};

/// Per-caller (RL env lane) warm-start state threaded through a backend
/// stack: one OpHint per sub-simulation of a logical evaluation (schematic
/// problems use slot 0; the PEX flow uses one slot per PVT corner). Hints
/// are an optimization channel, never a correctness one — a cache hit
/// leaves them untouched, and a null hint simply cold-starts.
struct SimHint {
  std::vector<OpHint> ops;

  /// Grow-on-demand slot access; it may reallocate `ops`, so the leaf
  /// sizes the vector once before taking slot pointers (see
  /// FunctionBackend).
  OpHint& slot(std::size_t i) {
    if (ops.size() <= i) ops.resize(i + 1);
    return ops[i];
  }

  void invalidate() {
    for (OpHint& o : ops) o.valid = false;
  }
};

/// The raw simulator callable adapted by FunctionBackend. The hint may be
/// null (cold start); the callable may ignore it entirely.
using EvalFn = std::function<EvalResult(const ParamVector&)>;
using HintedEvalFn = std::function<EvalResult(const ParamVector&, OpHint*)>;

/// Batched simulator callable: evaluates K design points as lanes of one
/// batched kernel invocation (lockstep DC Newton, batched AC/noise sweeps).
/// `hints` is empty or holds S (possibly null) slots per point,
/// point-major, where S is the number of simulations one point costs
/// (FunctionBackend's sims_per_point: 1 for a schematic problem, one per
/// PVT corner for PEX).
/// Contract: result[i] is exactly what a one-point call would return for
/// points[i] — batching is a throughput optimization, never a semantic one.
using BatchEvalFn = std::function<std::vector<EvalResult>(
    const std::vector<ParamVector>&, const std::vector<OpHint*>&)>;

}  // namespace autockt::eval
