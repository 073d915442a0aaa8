#pragma once
// The trace name registry: every span/counter name the recorder can emit,
// as interned constants. Call sites must use these (never ad-hoc string
// literals) so that registry() stays the exhaustive catalog — the
// OBSERVABILITY.md glossary is cross-checked against it by
// tests/test_trace.cpp, and bench_snapshot keys its counter section off
// the same names. Renaming a span breaks committed BENCH_*.json baselines
// and any downstream trace tooling; a name leaves only with the code that
// emitted it.

#include <vector>

namespace autockt::trace::names {

// ---- spans ---------------------------------------------------------------
inline constexpr const char* kEvalEvaluate = "eval/evaluate";
inline constexpr const char* kEvalEvaluateBatch = "eval/evaluate_batch";
inline constexpr const char* kEvalSimulate = "eval/simulate";
inline constexpr const char* kSimBuildWorkspace = "sim/build_workspace";
inline constexpr const char* kSimFactorReal = "sim/factor_real";
inline constexpr const char* kSimSolveReal = "sim/solve_real";
inline constexpr const char* kSimFactorComplex = "sim/factor_complex";
inline constexpr const char* kSimSolveComplex = "sim/solve_complex";
inline constexpr const char* kEnvTick = "env/tick";
inline constexpr const char* kEnvReset = "env/reset";
inline constexpr const char* kRlIteration = "rl/iteration";
inline constexpr const char* kRlCollect = "rl/collect";
inline constexpr const char* kRlUpdate = "rl/update";
inline constexpr const char* kRlValuePass = "rl/value_pass";
inline constexpr const char* kRlHoldoutProbe = "rl/holdout_probe";
inline constexpr const char* kDeployRun = "deploy/run";
inline constexpr const char* kEvalDiskReplay = "eval/disk_replay";
inline constexpr const char* kEvalWorkerDispatch = "eval/worker_dispatch";

// ---- counters ------------------------------------------------------------
inline constexpr const char* kEvalCacheHit = "eval/cache_hit";
inline constexpr const char* kEvalCacheMiss = "eval/cache_miss";
inline constexpr const char* kEvalBatchPoints = "eval/batch_points";
inline constexpr const char* kSimRestampReal = "sim/restamp_real";
inline constexpr const char* kSimRestampComplex = "sim/restamp_complex";
inline constexpr const char* kSimNewtonIterations = "sim/newton_iterations";
inline constexpr const char* kSimWarmStartAttempt = "sim/warm_start_attempt";
inline constexpr const char* kSimWarmStartHit = "sim/warm_start_hit";
inline constexpr const char* kSimDenseFallback = "sim/dense_fallback";
inline constexpr const char* kEvalDiskHit = "eval/disk_hit";
inline constexpr const char* kEvalDiskAppend = "eval/disk_append";
inline constexpr const char* kEvalWorkerPoints = "eval/worker_points";
inline constexpr const char* kEvalWorkerRetry = "eval/worker_retry";
inline constexpr const char* kEvalWorkerRestart = "eval/worker_restart";
inline constexpr const char* kEvalDiskWriteError = "eval/disk_write_error";

/// One registry row: the exported name, its kind ("span" or "counter") and
/// a one-line description (mirrored into the OBSERVABILITY.md glossary).
struct NameInfo {
  const char* name;
  const char* kind;
  const char* doc;
};

/// Every name the recorder can emit. Exhaustive by construction; the
/// glossary cross-check test fails when a name is added here but not
/// documented in docs/OBSERVABILITY.md.
const std::vector<NameInfo>& registry();

}  // namespace autockt::trace::names
