#pragma once
// Minimal dense neural-network stack with hand-derived backpropagation:
// flat parameter storage (so the optimizer sees one contiguous vector),
// tanh hidden layers, linear output. This is the substrate for the PPO
// policy/value networks (paper: three layers of 50 neurons) and for the
// GA+ML baseline's discriminator.
//
// Inference (`forward`) is const and allocation-light, so multiple rollout
// workers can query one frozen network concurrently.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace autockt::nn {

enum class Activation { Tanh, Relu };

class Mlp {
 public:
  /// layer_sizes = {in, hidden..., out}. Hidden layers use `act`; the output
  /// layer is linear with weights scaled by `final_scale` at init (small
  /// values keep an initial policy near-uniform, which PPO likes). Throws
  /// std::invalid_argument on fewer than two sizes or a width below 1.
  Mlp(std::vector<int> layer_sizes, Activation act, std::uint64_t seed,
      double final_scale = 1.0);

  int input_size() const { return sizes_.front(); }
  int output_size() const { return sizes_.back(); }

  /// Thread-safe inference.
  std::vector<double> forward(const std::vector<double>& x) const;

  /// Batched thread-safe inference: `x` holds `rows` input vectors stacked
  /// row-major (rows * input_size values); returns rows * output_size,
  /// row-major. Runs the row-blocked layer kernel (four rows and several
  /// outputs per pass on independent accumulators, each adding in
  /// forward()'s order), so row i equals forward(row i) bitwise.
  std::vector<double> forward_batch(const std::vector<double>& x,
                                    int rows) const;

  /// Cached activations for one forward pass, consumed by backward().
  struct Trace {
    std::vector<std::vector<double>> inputs;  // input to each layer
    std::vector<double> output;
  };
  Trace forward_trace(const std::vector<double>& x) const;

  /// Accumulate parameter gradients given dLoss/dOutput for the pass
  /// recorded in `trace`. Returns dLoss/dInput.
  std::vector<double> backward(const Trace& trace,
                               const std::vector<double>& d_output);

  /// Activations and deltas of one batch pass, all row-major. Made once by
  /// batch_trace() for up to `capacity` rows; the batch calls then never
  /// allocate.
  struct BatchTrace {
    int capacity = 0;
    int rows = 0;  // rows in the current batch
    /// acts[l] holds the input to layer l; acts.back() the network output.
    std::vector<std::vector<double>> acts;
    /// deltas[l] holds dLoss/d(pre-activation) of layer l's outputs. The
    /// output layer is linear, so deltas.back() is dLoss/dOutput.
    std::vector<std::vector<double>> deltas;
    double* input() { return acts.front().data(); }
    const double* output() const { return acts.back().data(); }
    double* d_output() { return deltas.back().data(); }
  };
  BatchTrace batch_trace(int capacity) const;

  /// Batched forward_trace(): `x` holds `rows` inputs row-major. Row r of
  /// trace.output() equals forward_trace(row r).output bitwise. Throws
  /// std::invalid_argument unless `trace` came from this net's (or a
  /// same-shaped net's) batch_trace() with capacity >= rows.
  void forward_trace_batch(const double* x, int rows, BatchTrace& trace) const;

  /// Batched backward() for the pass recorded in `trace`, with the
  /// parameters unchanged since: `d_output` holds trace.rows rows of
  /// dLoss/dOutput. Each weight and bias gradient adds its rows' terms in
  /// row order onto the existing gradient, so the result equals calling
  /// backward() row by row bitwise. When `d_input` is non-null it receives
  /// trace.rows rows of dLoss/dInput (backward()'s return values); null
  /// skips that product. Runs backward_rows() over every row, then
  /// accumulate_grads() over every gradient row.
  void backward_batch(BatchTrace& trace, const double* d_output,
                      double* d_input = nullptr);

  // ---- range kernels: one batch split across threads ---------------------
  // forward_trace_batch() and backward_batch() run these over the whole
  // batch. A caller that splits a batch across threads sets trace.rows,
  // fills its rows of trace.input(), runs forward_rows(), fills the same
  // rows of trace.d_output() and runs backward_rows(), each over disjoint
  // row ranges; once every row's deltas are in, it runs accumulate_grads()
  // over disjoint gradient-row ranges. Each value comes from the same
  // arithmetic in the same order as in the whole-batch calls, so any split
  // gives the same bits. The kernels do not check their arguments: the
  // trace must fit this net, rows lie in [0, trace.rows) and gradient rows
  // in [0, grad_rows()).

  /// Layer activations of rows [begin, end) from their trace.input().
  void forward_rows(BatchTrace& trace, int begin, int end) const;

  /// Deltas of rows [begin, end) from their trace.d_output(), down to
  /// deltas[0]; with a non-null `d_input`, also rows [begin, end) of
  /// dLoss/dInput (row r at d_input + r * input_size()).
  void backward_rows(BatchTrace& trace, int begin, int end,
                     double* d_input = nullptr) const;

  /// Gradient rows: one per layer output, numbered layer by layer from the
  /// input side. Gradient row u holds that output's weight row and bias.
  int grad_rows() const;
  /// The weights in gradient row u: its layer's input width. Throws
  /// std::out_of_range unless u is in [0, grad_rows()).
  int grad_row_fan_in(int u) const;

  /// Adds every row of the batch, in row order, onto gradient rows
  /// [begin, end), as backward() does one row at a time.
  void accumulate_grads(const BatchTrace& trace, int begin, int end);

  void zero_grad();

  std::vector<double>& params() { return params_; }
  const std::vector<double>& params() const { return params_; }
  std::vector<double>& grads() { return grads_; }

  std::size_t param_count() const { return params_.size(); }

  /// Text serialization (architecture + weights). load() throws
  /// std::runtime_error on a malformed file: a bad header, a layer count or
  /// width outside the load limits below, an unknown activation name, or
  /// truncated weights.
  void save(std::ostream& out) const;
  static Mlp load(std::istream& in);

  static constexpr std::size_t kMaxLoadLayers = 64;
  static constexpr int kMaxLoadWidth = 1 << 16;
  static constexpr std::size_t kMaxLoadParams = std::size_t{1} << 26;

 private:
  struct Layer {
    int in = 0, out = 0;
    std::size_t w_off = 0, b_off = 0;
  };

  double activate(double v) const;

  /// y = act(W x + b) for `rows` row-major inputs; the one kernel behind
  /// forward_batch() and forward_trace_batch().
  void layer_forward(const Layer& layer, bool last, const double* x, int rows,
                     double* y) const;

  std::vector<int> sizes_;
  Activation act_;
  std::vector<Layer> layers_;
  std::vector<double> params_;
  std::vector<double> grads_;
};

namespace detail {

/// The lane width of Mlp's batch kernels, chosen once per process: 4 on x86
/// CPUs that run AVX2 code (glibc's CPU_FEATURE_ACTIVE(AVX2); elsewhere the
/// compiler's CPU check), else 2. Both widths give the same bits.
int native_kernel_lanes();
/// The width the kernels run at: native_kernel_lanes() unless
/// set_kernel_lanes() changed it.
int kernel_lanes();
/// For tests that run the kernels at both widths in one process: accepts 2
/// and native_kernel_lanes(), and throws std::invalid_argument otherwise.
void set_kernel_lanes(int lanes);

}  // namespace detail

/// Adam optimizer over a flat parameter vector.
class Adam {
 public:
  explicit Adam(std::size_t n, double lr = 3e-4, double beta1 = 0.9,
                double beta2 = 0.999, double eps = 1e-8);

  /// begin_step(), then update() over every parameter.
  void step(std::vector<double>& params, const std::vector<double>& grads);

  /// Starts a step: advances the step count and its bias corrections.
  void begin_step();
  /// The current step for parameters [begin, end). Disjoint ranges touch
  /// disjoint state, so threads may update them at the same time.
  void update(double* params, const double* grads, std::size_t begin,
              std::size_t end);

  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }

 private:
  double lr_, beta1_, beta2_, eps_;
  std::vector<double> m_, v_;
  std::int64_t t_ = 0;
  double bc1_ = 1.0, bc2_ = 1.0;  // the current step's bias corrections
};

}  // namespace autockt::nn
