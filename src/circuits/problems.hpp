#pragma once
// Factory functions producing the paper's three sizing problems (plus the
// PEX/PVT variant used by the transfer-learning experiment). Target sampling
// ranges follow the paper where our technology surrogate makes them
// achievable; where recalibration was needed the constants below are
// annotated (see docs/DESIGN.md section 3 and docs/EXPERIMENTS.md).
//
// Every factory wires an evaluation-backend stack behind the problem: a
// FunctionBackend leaf holding the circuit's one batch simulator (a single
// point is a one-lane batch) behind a sharded memo cache keyed on grid
// indices. The PEX factory's leaf is a CornerBackend that simulates PVT
// corners in parallel and folds the worst case. ProblemOptions strips
// layers for tests and benchmarks that need the raw serial path.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuits/sizing_problem.hpp"
#include "pex/parasitics.hpp"
#include "pex/pvt.hpp"
#include "spice/mosfet.hpp"

namespace autockt::circuits {

/// Backend-stack configuration shared by all problem factories.
struct ProblemOptions {
  bool cache = true;            // sharded memo cache over the grid
  /// In-process PEX with parallel_corners off only: evaluate_batch()
  /// spreads points over the shared thread pool, each point folding its
  /// corners serially. Schematic problems run a batch as lanes of one
  /// pipeline instead.
  bool parallel_batch = true;
  bool parallel_corners = true; // PEX only: PVT corners fanned out
  /// Directory of a persistent on-disk eval cache (eval::DiskLogStore).
  /// Empty keeps the memo in memory only. The cache is guarded by the
  /// problem fingerprint: opening a directory written for a different
  /// problem definition throws std::runtime_error at construction.
  std::string cache_path;
  /// Fork this many worker processes and shard evaluations across them
  /// (eval::ProcessPoolBackend); 0 evaluates in-process. Results are
  /// bitwise-identical to the serial path; each worker runs its own
  /// simulator stack, so a crash costs one retry rather than the trainer.
  std::size_t eval_workers = 0;
};

/// Stable 64-bit fingerprint of a problem definition: the name, the full
/// parameter grid, every spec definition, and any extra canonical lines
/// (netlist problems pass the raw deck text). Two problems share an on-disk
/// eval cache iff their fingerprints match — the DiskLogStore replay guard.
std::uint64_t problem_fingerprint(const std::string& name,
                                  const std::vector<ParamDef>& params,
                                  const std::vector<SpecDef>& specs,
                                  const std::vector<std::string>& extra = {});

/// The standard backend stack behind a schematic problem: a FunctionBackend
/// leaf over `batch_fn` (whole batches as one call, single points as
/// one-lane calls), optionally forked across eval_workers processes, behind
/// an optional sharded memo cache. Shared by the built-in factories and by
/// deck-compiled problems (circuits/netlist_problem.hpp).
/// `cache_fingerprint` identifies the problem definition to a persistent
/// cache (see problem_fingerprint); only consulted when options.cache_path
/// is set.
std::shared_ptr<eval::EvalBackend> make_standard_backend(
    eval::BatchEvalFn batch_fn, const std::string& name,
    const ProblemOptions& options, std::uint64_t cache_fingerprint = 0);

/// Transimpedance amplifier (Table I / Fig. 5). ptm45 card.
SizingProblem make_tia_problem(const ProblemOptions& options = {});

/// Two-stage Miller op-amp (Table II / Figs. 7-8). ptm45 card.
SizingProblem make_two_stage_problem(const ProblemOptions& options = {});

/// Two-stage OTA with negative-gm load (Table III / Figs. 10-12),
/// schematic-only evaluation. finfet16 card.
SizingProblem make_ngm_problem(const ProblemOptions& options = {});

/// Same topology evaluated through the PEX substitute: geometry-driven
/// parasitics plus worst-case over PVT corners (Table IV / Figs. 13-14).
/// Spec definitions are identical to make_ngm_problem() except the phase
/// margin target, which deployment fixes at a 60 degree minimum (paper
/// Section III-D). Corners run through a CornerBackend — in parallel by
/// default — and fold to spec vectors identical to a serial corner loop.
SizingProblem make_ngm_pex_problem(const ProblemOptions& options = {});

/// Number of circuit simulations one PEX evaluation costs (the corner
/// count); used when accounting sample efficiency in paper-equivalent time.
std::size_t ngm_pex_corner_count();

}  // namespace autockt::circuits
