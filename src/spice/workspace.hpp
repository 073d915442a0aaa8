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
//  * preallocated value arrays, right-hand sides and solution buffers, so a
//    steady-state Newton iteration / AC frequency point performs zero heap
//    allocation.
//
// The sizing problems evaluate thousands of near-identical circuits (one
// per grid point the RL agent visits); the workspace registry keeps one
// workspace per (thread, topology key), so the symbolic work amortizes to
// nothing and every evaluation runs numeric-only refactorizations.
//
// Determinism: pivot orders are purely structural (value-free) and the
// dense partial-pivot fallback on a failed scale-aware pivot check depends
// only on the matrix values — results never depend on which design point a
// thread happened to see first.

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

/// Linear-algebra kernel selection for the analyses. Sparse is the
/// production path; Dense is the legacy allocate-and-pivot reference kept
/// as the oracle of the dense-vs-sparse parity tests.
enum class SimKernel { Sparse, Dense };

/// Snapshot of the process-wide simulation-kernel counters. Mirrored into
/// eval::EvalStats by SizingProblem::eval_stats() so training/deployment
/// stat dumps report kernel activity alongside simulator traffic. Each
/// simulating thread counts into a cache-line-aligned block of its own
/// (registered on its first count, folded into a retired total when the
/// thread exits); a snapshot sums the blocks, so no line written per Newton
/// iteration is shared between threads.
struct KernelStats {
  long newton_iterations = 0;       // linear solves driven by Newton loops
  long symbolic_factorizations = 0; // once per (thread, topology) + repivots
  long numeric_factorizations = 0;  // pattern-reusing refactorizations
  long dense_fallbacks = 0;         // scale-aware pivot check failures
  long warm_start_attempts = 0;     // DC solves offered a previous op point
  long warm_start_hits = 0;         // ... that converged from it directly
  long batch_refactorizations = 0;  // batched SoA refactorization passes
  long batch_lanes = 0;             // lanes factored across batched passes
  long batch_lane_fallbacks = 0;    // single lanes that went dense in a batch
};

/// Sum of every live thread's block and the retired total.
KernelStats kernel_stats_snapshot();
/// Zero every live thread's block and the retired total.
void reset_kernel_stats();

namespace kernel_counters {
void add_newton_iterations(long n);
void add_warm_start_attempt();
void add_warm_start_hit();
}  // namespace kernel_counters

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
  /// Zero the value array and RHS and return a stamping context writing
  /// through the frozen pattern. The caller stamps the circuit (plus any
  /// companion terms), then factors and solves.
  RealStamp begin_real(const std::vector<double>& node_v);
  /// Numeric-only refactorization; falls back to dense partial-pivot LU
  /// when the fixed pivot order fails its scale-aware check. False means
  /// the matrix is singular under both kernels.
  bool factor_real();
  /// Solve with the stamped RHS into the workspace solution buffer.
  const std::vector<double>& solve_real();

  // ---- complex side (AC and noise sweeps) ---------------------------------
  /// Zero G, C and the AC stimulus RHS; stamp once per operating point.
  ComplexStamp begin_complex(const std::vector<double>& op_voltages);
  /// Form Y(omega) = G + j*omega*C over the union pattern and refactor —
  /// no restamp, no reallocation. False means singular.
  bool factor_complex(double omega);
  /// Solve Y x = b_ac (the stamped stimulus).
  const std::vector<std::complex<double>>& solve_complex();
  /// Adjoint solve Y^T x = rhs (interreciprocal noise analysis).
  const std::vector<std::complex<double>>& solve_complex_transposed(
      const std::vector<std::complex<double>>& rhs);

  // ---- batched lanes (struct-of-arrays, K designs per kernel pass) --------
  // Staging protocol: ensure_*_batch(K) sizes the lane buffers, then for
  // each lane the caller runs the ordinary scalar staging (begin_real +
  // stamp) and commit_*_batch_lane(lane) snapshots the scalar value/RHS
  // arrays into that lane's SoA column. Factor/solve then run all K lanes
  // per elimination-program pass. Per-lane results are bitwise identical to
  // the scalar path, including the per-lane dense fallback on a failed
  // scale-aware pivot check.
  /// Size (or resize) the real-side batch to `lanes` lanes.
  void ensure_real_batch(std::size_t lanes);
  std::size_t real_batch_lanes() const { return batch_lanes_real_; }
  /// Snapshot the scalar staging arrays (vals + RHS) into lane `lane`.
  void commit_real_batch_lane(std::size_t lane);
  /// Batched numeric refactorization of every lane; failed lanes fall back
  /// to dense partial-pivot LU individually. Returns true when every lane
  /// has a usable factorization under either kernel.
  bool factor_real_batch();
  /// Lane factorization usable (sparse or dense fallback succeeded)?
  bool real_lane_solvable(std::size_t lane) const;
  /// Solve every lane against its committed RHS; layout [i*lanes + lane].
  const std::vector<double>& solve_real_batch();
  /// Copy lane `lane` of the batch solution into `out` (resized to n).
  void real_lane_solution(std::size_t lane, std::vector<double>& out) const;

  /// Complex-side batch mirror (AC / noise sweeps over K designs).
  void ensure_complex_batch(std::size_t lanes);
  std::size_t complex_batch_lanes() const { return batch_lanes_cplx_; }
  void commit_complex_batch_lane(std::size_t lane);
  /// Form Y(omega) per lane over the union pattern and batch-refactor.
  bool factor_complex_batch(double omega);
  bool complex_lane_solvable(std::size_t lane) const;
  /// Solve every lane against its committed AC stimulus RHS.
  const std::vector<std::complex<double>>& solve_complex_batch();
  /// Adjoint solve with one shared stimulus broadcast across all lanes.
  const std::vector<std::complex<double>>& solve_complex_transposed_batch(
      const std::vector<std::complex<double>>& rhs);
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

  // Real side.
  linalg::SparsePattern pattern_real_;
  linalg::SparseLuSymbolic sym_real_;
  linalg::SparseLuNumeric<double> lu_real_;
  std::vector<double> vals_real_;
  std::vector<double> rhs_real_;
  std::vector<double> x_real_;
  std::vector<int> real_slot_row_, real_slot_col_;  // dense-fallback scatter
  linalg::RealMatrix dense_real_;
  std::vector<int> slots_real_;  // n x n: pattern_real_.slot_table()
  std::optional<linalg::LuFactorization<double>> dense_lu_real_;
  bool real_sparse_ok_ = false;
  // Real batch lanes (lane-contiguous SoA: slot s of lane l at [s*K + l]).
  std::size_t batch_lanes_real_ = 0;
  linalg::SparseLuNumericBatch<double> lu_real_batch_;
  std::vector<double> batch_vals_real_;   // [a_slot*K + lane]
  std::vector<double> batch_rhs_real_;    // [i*K + lane]
  std::vector<double> batch_x_real_;      // [i*K + lane]
  std::vector<unsigned char> real_lane_ok_;        // sparse pivot checks
  std::vector<unsigned char> real_lane_solvable_;  // sparse or dense ok
  std::vector<std::optional<linalg::LuFactorization<double>>>
      dense_lu_real_lanes_;

  // Complex side (one union pattern, separate G and C value arrays).
  linalg::SparsePattern pattern_cplx_;
  linalg::SparseLuSymbolic sym_cplx_;
  linalg::SparseLuNumeric<std::complex<double>> lu_cplx_;
  std::vector<double> g_vals_;
  std::vector<double> c_vals_;
  std::vector<std::complex<double>> y_vals_;
  std::vector<std::complex<double>> rhs_cplx_;
  std::vector<std::complex<double>> x_cplx_;
  std::vector<int> cplx_slot_row_, cplx_slot_col_;
  linalg::ComplexMatrix dense_cplx_;
  std::vector<int> slots_cplx_;  // n x n: pattern_cplx_.slot_table()
  std::optional<linalg::LuFactorization<std::complex<double>>> dense_lu_cplx_;
  bool cplx_sparse_ok_ = false;
  // Complex batch lanes.
  std::size_t batch_lanes_cplx_ = 0;
  linalg::SparseLuNumericBatch<std::complex<double>> lu_cplx_batch_;
  std::vector<double> batch_g_vals_;               // [slot*K + lane]
  std::vector<double> batch_c_vals_;               // [slot*K + lane]
  std::vector<std::complex<double>> batch_rhs_cplx_;
  std::vector<std::complex<double>> batch_x_cplx_;
  std::vector<std::complex<double>> batch_bcast_cplx_;  // broadcast scratch
  std::vector<unsigned char> cplx_lane_ok_;
  std::vector<unsigned char> cplx_lane_solvable_;
  std::vector<std::optional<linalg::LuFactorization<std::complex<double>>>>
      dense_lu_cplx_lanes_;

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
