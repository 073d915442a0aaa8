#pragma once
// Device abstraction for the MNA engine.
//
// Devices are immutable and stateless: every stamping call receives the full
// evaluation context (candidate node voltages, time). This makes circuit
// evaluation trivially thread-safe — multiple RL environments can evaluate
// copies of the same topology concurrently.
//
// Stamps write through MnaSink, which targets one of two backends:
//  * a frozen sparse pattern   — slot writes into one lane's column of a
//                                lane-interleaved value array, each slot
//                                read from the pattern's n x n slot table
//                                (see spice/workspace.hpp),
//  * a PatternBuilder          — the discovery pass that freezes a circuit
//                                topology's structural pattern once.
// Devices whose footprint depends on the operating point (the MOSFET's
// drain/source swap) override declare_*_pattern() to declare the superset.
//
// AC stamping is split into a frequency-independent conductance part G and a
// capacitance part C; the engines form Y(omega) = G + j*omega*C per
// frequency without re-stamping any device.
//
// Conventions:
//  * Node 0 is ground and has no matrix row/column.
//  * Matrix index of node n (n > 0) is n - 1.
//  * Voltage sources append one branch-current unknown each, after the nodes.
//  * Nonlinear devices stamp their Newton companion model: for an injected
//    current J(v) leaving node d, they add the Jacobian dJ/dv to the matrix
//    and move J(v0) - (dJ/dv)·v0 to the right-hand side.

#include <cassert>
#include <complex>
#include <cstddef>
#include <string>
#include <vector>

#include "linalg/sparse.hpp"

namespace autockt::spice {

using NodeId = std::size_t;  // 0 == ground
inline constexpr NodeId kGround = 0;

/// One lane's column of a lane-interleaved array: element i of the lane is
/// at base[i * stride]. A plain vector is the one-lane column (stride 1).
template <typename T>
class LaneColumn {
 public:
  LaneColumn(T* base, std::size_t stride) : base_(base), stride_(stride) {}
  LaneColumn(std::vector<T>& v)  // NOLINT(runtime/explicit)
      : base_(v.data()), stride_(1) {}

  T& operator[](std::size_t i) const { return base_[i * stride_]; }

 private:
  T* base_;
  std::size_t stride_;
};

/// Branch-cheap, non-virtual target for matrix stamps.
class MnaSink {
 public:
  MnaSink() = default;
  /// Slot writes into one lane's column of `values`: `slots` is the n x n
  /// slot table of the pattern the values are aligned with
  /// (SparsePattern::slot_table()), and slot s of this lane is at
  /// values[s * stride].
  MnaSink(const int* slots, std::size_t n, double* values,
          std::size_t stride = 1)
      : slots_(slots), n_(n), values_(values), stride_(stride) {}
  /// Structural discovery: record positions, ignore values.
  explicit MnaSink(linalg::PatternBuilder& builder) : builder_(&builder) {}

  void add(std::size_t row, std::size_t col, double v) {
    if (values_ != nullptr) {
      add_at(slot(row, col), v);
    } else if (builder_ != nullptr) {
      builder_->add(row, col);
    }
  }

  /// Value slot of entry (row, col) in a slot-write sink (-1 outside the
  /// pattern). A stamp that adds into the same entries on every pass binds
  /// them once here and adds through add_at(), skipping the table load.
  int slot(std::size_t row, std::size_t col) const {
    assert(values_ != nullptr && row < n_ && col < n_);
    return slots_[row * n_ + col];
  }

  /// add() into a slot bound by slot().
  void add_at(int s, double v) {
    assert(s >= 0 && "stamp outside the discovered pattern");
    if (s < 0) return;  // release builds: drop rather than corrupt memory
    values_[static_cast<std::size_t>(s) * stride_] += v;
  }

 private:
  const int* slots_ = nullptr;
  std::size_t n_ = 0;
  double* values_ = nullptr;
  std::size_t stride_ = 1;
  linalg::PatternBuilder* builder_ = nullptr;
};

/// Real-valued (DC / transient Newton iteration) stamping context.
struct RealStamp {
  MnaSink a;
  LaneColumn<double> b;                 // right-hand side
  const std::vector<double>& voltages;  // candidate solution, indexed by node
  /// Transient time; 0 for DC. A device that reads it must override
  /// Device::stamps_constant_between, or the transient replays steps over
  /// times where its stamp changes.
  double time = 0.0;
  bool transient = false;               // sources: use waveform(t) vs dc()
  double gmin = 0.0;                    // Newton homotopy conductance
  double source_scale = 1.0;            // source-stepping homotopy factor
  std::size_t num_nodes = 0;            // including ground

  std::size_t row_of_node(NodeId n) const { return n - 1; }
  std::size_t row_of_branch(std::size_t branch) const {
    return (num_nodes - 1) + branch;
  }

  /// Raw matrix entry (branch rows/columns of sources and probes).
  void add_a(std::size_t row, std::size_t col, double v) { a.add(row, col, v); }

  /// Conductance g between nodes n1 and n2.
  void conductance(NodeId n1, NodeId n2, double g) {
    if (n1 != kGround) a.add(row_of_node(n1), row_of_node(n1), g);
    if (n2 != kGround) a.add(row_of_node(n2), row_of_node(n2), g);
    if (n1 != kGround && n2 != kGround) {
      a.add(row_of_node(n1), row_of_node(n2), -g);
      a.add(row_of_node(n2), row_of_node(n1), -g);
    }
  }

  /// d(current leaving `at`)/d(voltage of `wrt`) += g.
  void jacobian(NodeId at, NodeId wrt, double g) {
    if (at != kGround && wrt != kGround)
      a.add(row_of_node(at), row_of_node(wrt), g);
  }

  /// Current `i` injected INTO node n (KCL right-hand side).
  void inject(NodeId n, double i) {
    if (n != kGround) b[row_of_node(n)] += i;
  }

  /// Right-hand-side entry of a branch row.
  void add_rhs(std::size_t row, double v) { b[row] += v; }
};

/// Small-signal (AC / noise) stamping context. Devices linearize around the
/// provided DC operating point and write the frequency-independent part into
/// `g` and capacitances into `c`; the engine forms G + j*omega*C per
/// frequency point, so one stamping pass serves a whole sweep.
struct ComplexStamp {
  MnaSink g;  // conductances, transconductances, source/probe branch rows
  MnaSink c;  // capacitances (scaled by j*omega at solve time)
  LaneColumn<std::complex<double>> b;      // AC stimulus (freq-independent)
  const std::vector<double>& op_voltages;  // converged DC solution by node
  std::size_t num_nodes = 0;

  std::size_t row_of_node(NodeId n) const { return n - 1; }
  std::size_t row_of_branch(std::size_t branch) const {
    return (num_nodes - 1) + branch;
  }

  void add_g(std::size_t row, std::size_t col, double v) { g.add(row, col, v); }

  /// Conductance between two nodes (the real part of a branch admittance).
  void conductance(NodeId n1, NodeId n2, double gv) {
    two_node(g, n1, n2, gv);
  }

  /// Capacitance between two nodes (stamped as admittance j*omega*c).
  void capacitance(NodeId n1, NodeId n2, double cv) {
    two_node(c, n1, n2, cv);
  }

  /// d(current leaving `at`)/d(v of `wrt`) += gv, at the operating point.
  void transconductance(NodeId at, NodeId wrt, double gv) {
    if (at != kGround && wrt != kGround)
      g.add(row_of_node(at), row_of_node(wrt), gv);
  }

  void inject(NodeId n, std::complex<double> i) {
    if (n != kGround) b[row_of_node(n)] += i;
  }

  void add_rhs(std::size_t row, std::complex<double> v) { b[row] += v; }

 private:
  void two_node(MnaSink& sink, NodeId n1, NodeId n2, double v) {
    if (n1 != kGround) sink.add(row_of_node(n1), row_of_node(n1), v);
    if (n2 != kGround) sink.add(row_of_node(n2), row_of_node(n2), v);
    if (n1 != kGround && n2 != kGround) {
      sink.add(row_of_node(n1), row_of_node(n2), -v);
      sink.add(row_of_node(n2), row_of_node(n1), -v);
    }
  }
};

/// A linear capacitance contributed by a device; the transient engine owns
/// the companion-model state for each element.
struct CapElement {
  NodeId n1 = kGround;
  NodeId n2 = kGround;
  double capacitance = 0.0;
};

/// One small-signal noise current source (between two nodes) with its power
/// spectral density at the query frequency.
struct NoiseSource {
  NodeId n1 = kGround;  // current flows n1 -> n2
  NodeId n2 = kGround;
  double psd = 0.0;     // A^2/Hz at the queried frequency
};

/// Structural self-description used by the static analyzers
/// (analysis/circuit_lint.hpp): what kind of element this is, every node it
/// touches, and which node pairs it connects with a DC-conductive path
/// (a path that lets the DC solution determine relative node voltages —
/// resistor bodies, voltage sources, MOSFET channels, bias-servo ports;
/// NOT capacitors, current sources or VCCS ports).
struct DeviceTopology {
  enum class Kind {
    Resistor,
    Capacitor,
    VoltageSource,
    CurrentSource,
    Vccs,
    BiasProbe,
    Mosfet,
    Other
  };
  Kind kind = Kind::Other;
  std::vector<NodeId> nodes;                         // all terminals
  std::vector<std::pair<NodeId, NodeId>> dc_paths;   // conductive pairs
};

class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = default;
  Device& operator=(const Device&) = default;

  const std::string& name() const { return name_; }

  /// Number of branch-current unknowns this device introduces (voltage
  /// sources: 1). `first_branch` is assigned by the circuit at registration.
  virtual std::size_t branch_count() const { return 0; }
  void set_first_branch(std::size_t b) { first_branch_ = b; }
  std::size_t first_branch() const { return first_branch_; }

  /// Stamp the resistive/Newton-linearized part. Capacitances are NOT
  /// stamped here; the transient engine adds companion stamps for the
  /// elements reported by collect_caps().
  virtual void stamp_real(RealStamp& ctx) const = 0;

  /// Stamp the small-signal model split into G and C parts (see
  /// ComplexStamp).
  virtual void stamp_complex(ComplexStamp& ctx) const = 0;

  /// Declare the superset of matrix positions stamp_real() may ever touch,
  /// stamping into a pattern-discovery context. The default single stamp is
  /// exact for devices whose footprint is voltage-independent; the MOSFET
  /// overrides it to cover both drain/source orientations.
  virtual void declare_real_pattern(RealStamp& ctx) const { stamp_real(ctx); }

  /// Same superset declaration for the small-signal G/C stamps.
  virtual void declare_complex_pattern(ComplexStamp& ctx) const {
    stamp_complex(ctx);
  }

  /// Report linear capacitances for transient companion integration.
  virtual void collect_caps(std::vector<CapElement>& /*out*/) const {}

  /// True when stamp_real() stamps the same values at every transient time
  /// in [t_a, t_b], given the same voltages. The default is right for a
  /// device that never reads RealStamp::time; one that reads it overrides
  /// this. The transient replays steps, without solving them, only where
  /// every device answers true (see spice/transient.hpp).
  virtual bool stamps_constant_between(double /*t_a*/, double /*t_b*/) const {
    return true;
  }

  /// Report noise current sources at frequency `freq`, given the operating
  /// point; used by the adjoint noise analysis.
  virtual void collect_noise(const std::vector<double>& /*op_voltages*/,
                             double /*freq*/, double /*temp_k*/,
                             std::vector<NoiseSource>& /*out*/) const {}

  /// Structural description for the static analyzers. The default (no
  /// nodes, Kind::Other) makes unknown devices invisible to the topology
  /// checks — conservative: they can never cause a false positive.
  virtual DeviceTopology topology() const { return {}; }

 private:
  std::string name_;
  std::size_t first_branch_ = 0;
};

}  // namespace autockt::spice
