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
  /// values keep an initial policy near-uniform, which PPO likes).
  Mlp(std::vector<int> layer_sizes, Activation act, std::uint64_t seed,
      double final_scale = 1.0);

  int input_size() const { return sizes_.front(); }
  int output_size() const { return sizes_.back(); }

  /// Thread-safe inference.
  std::vector<double> forward(const std::vector<double>& x) const;

  /// Batched thread-safe inference: `x` holds `rows` input vectors stacked
  /// row-major (rows * input_size values); returns rows * output_size,
  /// row-major. Runs the row-blocked layer kernel (several rows per pass
  /// on independent accumulators, each adding in forward()'s order), so
  /// row i equals forward(row i) bitwise.
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

  /// Activations of one forward_trace_batch() pass plus the scratch its
  /// backward_batch() needs, all row-major. Made once by batch_trace() for
  /// up to `capacity` rows; the batch calls then never allocate.
  struct BatchTrace {
    int capacity = 0;
    int rows = 0;  // rows recorded by the last forward_trace_batch()
    /// acts[l] holds the input to layer l; acts.back() the network output.
    std::vector<std::vector<double>> acts;
    std::vector<double> delta, delta_below;  // dLoss/d(pre-activation)
    const double* output() const { return acts.back().data(); }
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
  /// skips that product.
  void backward_batch(BatchTrace& trace, const double* d_output,
                      double* d_input = nullptr);

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
  double activate_grad(double pre) const;

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

/// Adam optimizer over a flat parameter vector.
class Adam {
 public:
  explicit Adam(std::size_t n, double lr = 3e-4, double beta1 = 0.9,
                double beta2 = 0.999, double eps = 1e-8);

  void step(std::vector<double>& params, const std::vector<double>& grads);
  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }

 private:
  double lr_, beta1_, beta2_, eps_;
  std::vector<double> m_, v_;
  std::int64_t t_ = 0;
};

}  // namespace autockt::nn
