#pragma once
// SimWorkspace: the reusable, sparsity-aware simulation kernel behind every
// analysis. One workspace per circuit *topology* owns:
//
//  * the frozen real and complex (G/C) stamp patterns (triplet discovery ->
//    CSC, see linalg/sparse.hpp), including weak slots for gmin homotopy
//    diagonals and transient companion conductances, each expanded into an
//    n x n slot table so a stamp finds its value slot with one load;
//  * the symbolic sparse-LU factorizations (Markowitz pivot order + fill
//    pattern + compiled elimination program), computed ONCE per topology;
//  * the one numeric kernel (linalg::SparseLuNumericBatch) per side and its
//    lane-interleaved value arrays, right-hand sides and solutions, so a
//    steady-state Newton iteration / AC frequency point performs zero heap
//    allocation.
//
// Every analysis runs K designs ("lanes") of one topology per kernel pass;
// a single design is a one-lane pass. A pass is: begin_*(K) zeroes every
// lane's values and right-hand side, stamp_*(lane, ...) returns the context
// that stamps that lane straight into its own column (slot s of lane l at
// [s*K + l]; K = 1 is the plain scalar layout), factor_*() refactors all
// lanes, and solve_*() solves them. The per-pass kernel counts are tallied
// on the thread and flushed by a kernel_counters::CallScope, which every
// analysis entry point holds; code driving a workspace directly holds one
// too.
//
// The sizing problems evaluate thousands of near-identical circuits (one
// per grid point the RL agent visits); the workspace registry keeps one
// workspace per (thread, topology key), so the symbolic work amortizes to
// nothing and every evaluation runs numeric-only refactorizations.
//
// Determinism: pivot orders are purely structural (value-free), and a lane
// that fails the scale-aware pivot check is redone by dense partial-pivot
// LU on that lane's values alone — results never depend on which design
// point a thread happened to see first, nor on the other lanes of a pass.

#include <complex>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_lu.hpp"
#include "spice/circuit.hpp"

namespace autockt::spice {

/// Snapshot of the process-wide simulation-kernel counters. Mirrored into
/// eval::EvalStats by SizingProblem::eval_stats() so training/deployment
/// stat dumps report kernel activity alongside simulator traffic. Each
/// simulating thread counts into a cache-line-aligned block of its own
/// (registered on its first count, folded into a retired total when the
/// thread exits); a snapshot sums the blocks, so no line written per Newton
/// iteration is shared between threads. The per-iteration counts (Newton
/// iterations, refactorizations, passes) are tallied in plain thread-local
/// memory and added to the block once per analysis call, when the call
/// returns, so a snapshot sees every finished call's counts.
struct KernelStats {
  long newton_iterations = 0;       // lane Newton iterations (linear solves)
  long symbolic_factorizations = 0; // once per (thread, topology) + repivots
  long numeric_factorizations = 0;  // lane refactorizations (K per pass)
  long dense_fallbacks = 0;         // lanes that failed the pivot check
  long warm_start_attempts = 0;     // DC solves offered a previous op point
  long warm_start_hits = 0;         // ... that converged from it directly
  long batch_refactorizations = 0;  // kernel passes, one-lane ones included
};

/// Sum of every live thread's block and the retired total.
KernelStats kernel_stats_snapshot();
/// Zero every live thread's block and the retired total.
void reset_kernel_stats();

namespace kernel_counters {
void add_newton_iterations(long n);
void add_warm_start_attempt();
void add_warm_start_hit();
/// Held by every analysis entry point: on destruction, adds the counts this
/// thread tallied since the last flush to its block.
struct CallScope {
  CallScope() = default;
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;
  ~CallScope();
};
}  // namespace kernel_counters

namespace detail {
/// For the dense-vs-sparse parity tests: while on, every factorization of
/// every workspace skips the sparse kernel and takes the per-lane dense
/// partial-pivot fallback. Off by default.
void force_dense_fallback(bool on);
}  // namespace detail

class SimWorkspace {
 public:
  /// Which assembly sides to build. One-shot scratch workspaces build only
  /// the side their analysis needs (a DC solve never touches the complex
  /// symbolic factorization and vice versa); the registry builds both.
  enum class Sides { Real, Complex, Both };

  /// Discovers the stamp pattern(s) and runs the symbolic factorizations.
  explicit SimWorkspace(const Circuit& circuit, Sides sides = Sides::Both);

  /// Cheap structural check that `circuit` matches the topology this
  /// workspace was built from (same unknown/device counts).
  bool compatible(const Circuit& circuit) const;

  bool has_real() const { return real_built_; }
  bool has_complex() const { return cplx_built_; }

  std::size_t num_unknowns() const { return n_; }

  // ---- real side (DC and transient Newton iterations) ---------------------
  /// Size the real side to `lanes` lanes (no reallocation when it shrinks)
  /// and zero every lane's values and right-hand side.
  void begin_real(std::size_t lanes);
  /// The context that stamps lane `lane` straight into its own column. The
  /// caller stamps the circuit (plus any companion terms) through it.
  RealStamp stamp_real(std::size_t lane, const std::vector<double>& node_v);
  /// Numeric-only refactorization of every lane; a lane failing the
  /// scale-aware pivot check is redone by dense partial-pivot LU on its own
  /// values. True when every lane has a usable factorization.
  bool factor_real();
  /// Lane factorization usable (sparse or dense fallback succeeded)?
  bool real_lane_solvable(std::size_t lane) const;
  /// Solve every lane against its stamped right-hand side.
  void solve_real();
  /// Copy lane `lane` of the solution into `out` (resized to n).
  void real_lane_solution(std::size_t lane, std::vector<double>& out) const;

  // ---- complex side (AC and noise sweeps) ---------------------------------
  /// Size the complex side to `lanes` lanes and zero every lane's G, C and
  /// AC stimulus; each lane stamps once per operating point.
  void begin_complex(std::size_t lanes);
  ComplexStamp stamp_complex(std::size_t lane,
                             const std::vector<double>& op_voltages);
  /// Form Y(omega) = G + j*omega*C per lane over the union pattern and
  /// refactor — no restamp, no reallocation. True when every lane has a
  /// usable factorization.
  bool factor_complex(double omega);
  bool complex_lane_solvable(std::size_t lane) const;
  /// Solve every lane against its stamped AC stimulus.
  void solve_complex();
  /// Adjoint solve Y^T x = rhs of every lane, with one `rhs` shared by all
  /// lanes (interreciprocal noise analysis).
  void solve_complex_transposed(const std::vector<std::complex<double>>& rhs);
  void complex_lane_solution(std::size_t lane,
                             std::vector<std::complex<double>>& out) const;

 private:
  void build_real(const Circuit& circuit);
  void build_complex(const Circuit& circuit);

  std::size_t n_ = 0;
  std::size_t num_nodes_ = 0;
  std::size_t num_branches_ = 0;
  std::size_t num_devices_ = 0;
  bool real_built_ = false;
  bool cplx_built_ = false;

  // Real side. Lane-interleaved storage: slot s of lane l at [s*K + l],
  // unknown i of lane l at [i*K + l].
  linalg::SparsePattern pattern_real_;
  linalg::SparseLuSymbolic sym_real_;
  std::vector<int> slots_real_;  // n x n: pattern_real_.slot_table()
  std::vector<int> real_slot_row_, real_slot_col_;  // dense-fallback scatter
  std::size_t lanes_real_ = 0;
  linalg::SparseLuNumericBatch<double> lu_real_;
  std::vector<double> vals_real_;  // [a_slot*K + lane]
  std::vector<double> rhs_real_;   // [i*K + lane]
  std::vector<double> x_real_;     // [i*K + lane]
  std::vector<unsigned char> real_lane_ok_;        // sparse pivot checks
  std::vector<unsigned char> real_lane_solvable_;  // sparse or dense ok
  linalg::RealMatrix dense_real_;
  std::vector<std::optional<linalg::LuFactorization<double>>> dense_lu_real_;

  // Complex side (one union pattern, separate G and C value arrays).
  linalg::SparsePattern pattern_cplx_;
  linalg::SparseLuSymbolic sym_cplx_;
  std::vector<int> slots_cplx_;  // n x n: pattern_cplx_.slot_table()
  std::vector<int> cplx_slot_row_, cplx_slot_col_;
  std::size_t lanes_cplx_ = 0;
  linalg::SparseLuNumericBatch<std::complex<double>> lu_cplx_;
  std::vector<double> g_vals_;  // [slot*K + lane]
  std::vector<double> c_vals_;  // [slot*K + lane]
  std::vector<std::complex<double>> rhs_cplx_;    // [i*K + lane]
  std::vector<std::complex<double>> x_cplx_;      // [i*K + lane]
  std::vector<std::complex<double>> bcast_cplx_;  // shared adjoint stimulus
  std::vector<unsigned char> cplx_lane_ok_;
  std::vector<unsigned char> cplx_lane_solvable_;
  linalg::ComplexMatrix dense_cplx_;
  std::vector<std::optional<linalg::LuFactorization<std::complex<double>>>>
      dense_lu_cplx_;

  std::vector<double> zero_voltages_;  // discovery-pass scratch
};

/// Thread-local workspace registry: one workspace per (thread, topology
/// key), rebuilt automatically if an incompatible circuit arrives under the
/// same key. Thread-locality avoids locks; each worker pays the symbolic
/// cost once per topology and reuses it for every evaluation it runs.
///
/// A key must name exactly one topology: the same devices, in the same
/// order, on the same nodes. compatible() compares only unknown, node,
/// branch and device counts, so two topologies of equal counts under one
/// key would share a stale pattern, and release builds drop the stamps
/// that fall outside it. Callers whose topology is not fixed by the key's
/// text (deck problems) fold a structural fingerprint into the key.
SimWorkspace& workspace_for(const Circuit& circuit,
                            const std::string& topology_key);

}  // namespace autockt::spice
