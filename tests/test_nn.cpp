#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nn/categorical.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GLIBC__) && \
    __has_include(<sys/platform/x86.h>)
#include <sys/platform/x86.h>
#endif

using namespace autockt::nn;
using autockt::util::Rng;

namespace {

std::vector<double> random_vec(int n, Rng& rng, double scale = 1.0) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = scale * rng.uniform(-1.0, 1.0);
  return x;
}

/// Scalar loss used for gradient checking: L = sum_i w_i * y_i with fixed
/// per-output weights, so dL/dy = w.
double loss_of(const Mlp& mlp, const std::vector<double>& x,
               const std::vector<double>& w) {
  const auto y = mlp.forward(x);
  double acc = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) acc += w[i] * y[i];
  return acc;
}

}  // namespace

TEST(Mlp, OutputSizesAndDeterminism) {
  Mlp mlp({4, 16, 3}, Activation::Tanh, 7);
  Rng rng(1);
  const auto x = random_vec(4, rng);
  const auto y1 = mlp.forward(x);
  const auto y2 = mlp.forward(x);
  ASSERT_EQ(y1.size(), 3u);
  EXPECT_EQ(y1, y2);

  Mlp same({4, 16, 3}, Activation::Tanh, 7);
  EXPECT_EQ(same.forward(x), y1);  // seed-deterministic init
}

TEST(Mlp, FinalScaleShrinksOutputs) {
  Rng rng(1);
  const auto x = random_vec(4, rng);
  Mlp big({4, 16, 3}, Activation::Tanh, 7, 1.0);
  Mlp small({4, 16, 3}, Activation::Tanh, 7, 0.01);
  double norm_big = 0.0, norm_small = 0.0;
  for (double v : big.forward(x)) norm_big += v * v;
  for (double v : small.forward(x)) norm_small += v * v;
  EXPECT_LT(norm_small, norm_big * 1e-2);
}

TEST(Mlp, RejectsDegenerateArchitecture) {
  EXPECT_THROW(Mlp({4}, Activation::Tanh, 1), std::invalid_argument);
  // A zero or negative width, as Mlp::load rejects it.
  EXPECT_THROW(Mlp({4, 0, 3}, Activation::Tanh, 1), std::invalid_argument);
  EXPECT_THROW(Mlp({4, -1, 3}, Activation::Tanh, 1), std::invalid_argument);
  EXPECT_THROW(Mlp({0, 3}, Activation::Tanh, 1), std::invalid_argument);
  EXPECT_THROW(Mlp({4, 3, 0}, Activation::Relu, 1), std::invalid_argument);
  EXPECT_NO_THROW(Mlp({1, 1}, Activation::Tanh, 1));
}

// The critical correctness test for the whole RL stack: analytic parameter
// gradients must match central finite differences for several shapes and
// both activations.
class MlpGradCheck
    : public ::testing::TestWithParam<
          std::tuple<std::vector<int>, Activation>> {};

TEST_P(MlpGradCheck, ParameterGradientsMatchFiniteDifferences) {
  const auto& [sizes, act] = GetParam();
  Mlp mlp(sizes, act, 99);
  Rng rng(5);
  const auto x = random_vec(sizes.front(), rng);
  const auto w = random_vec(sizes.back(), rng);

  mlp.zero_grad();
  const auto trace = mlp.forward_trace(x);
  mlp.backward(trace, w);
  const auto analytic = mlp.grads();

  const double h = 1e-6;
  // Probe a deterministic subset of parameters (checking all ~thousand is
  // slow and adds nothing).
  for (std::size_t i = 0; i < mlp.param_count();
       i += std::max<std::size_t>(1, mlp.param_count() / 97)) {
    const double saved = mlp.params()[i];
    mlp.params()[i] = saved + h;
    const double up = loss_of(mlp, x, w);
    mlp.params()[i] = saved - h;
    const double down = loss_of(mlp, x, w);
    mlp.params()[i] = saved;
    const double numeric = (up - down) / (2.0 * h);
    EXPECT_NEAR(analytic[i], numeric,
                1e-5 + 1e-4 * std::fabs(numeric))
        << "param " << i;
  }
}

TEST_P(MlpGradCheck, InputGradientsMatchFiniteDifferences) {
  const auto& [sizes, act] = GetParam();
  Mlp mlp(sizes, act, 123);
  Rng rng(6);
  auto x = random_vec(sizes.front(), rng);
  const auto w = random_vec(sizes.back(), rng);

  mlp.zero_grad();
  const auto trace = mlp.forward_trace(x);
  const auto d_input = mlp.backward(trace, w);

  const double h = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double saved = x[i];
    x[i] = saved + h;
    const double up = loss_of(mlp, x, w);
    x[i] = saved - h;
    const double down = loss_of(mlp, x, w);
    x[i] = saved;
    EXPECT_NEAR(d_input[i], (up - down) / (2.0 * h), 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpGradCheck,
    ::testing::Values(
        std::make_tuple(std::vector<int>{3, 8, 2}, Activation::Tanh),
        std::make_tuple(std::vector<int>{5, 16, 16, 4}, Activation::Tanh),
        std::make_tuple(std::vector<int>{18, 50, 50, 50, 21}, Activation::Tanh),
        std::make_tuple(std::vector<int>{4, 12, 3}, Activation::Relu),
        std::make_tuple(std::vector<int>{6, 20, 20, 1}, Activation::Relu)));

TEST(Mlp, GradAccumulatesAcrossBackwardCalls) {
  Mlp mlp({2, 4, 1}, Activation::Tanh, 3);
  Rng rng(9);
  const auto x = random_vec(2, rng);
  mlp.zero_grad();
  auto trace = mlp.forward_trace(x);
  mlp.backward(trace, {1.0});
  const auto once = mlp.grads();
  mlp.backward(trace, {1.0});
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(mlp.grads()[i], 2.0 * once[i], 1e-12);
  }
  mlp.zero_grad();
  for (double g : mlp.grads()) EXPECT_EQ(g, 0.0);
}

// ---------------------------------------------------------- batch kernels
namespace {

/// forward_trace_batch + backward_batch over `rows` rows of a net of
/// `sizes` (parameters from `seed`, data from `data_seed`) against the
/// per-row reference loop (forward_trace + backward, one row at a time):
/// outputs, every weight and bias gradient and dLoss/dInput must be
/// bitwise-equal, with and without the dLoss/dInput product, and gradients
/// must accumulate onto existing non-zero values exactly as the per-row
/// loop does.
void expect_batch_matches_per_row(const std::vector<int>& sizes,
                                  Activation act, int rows,
                                  std::uint64_t seed,
                                  std::uint64_t data_seed) {
  const std::size_t in = static_cast<std::size_t>(sizes.front());
  const std::size_t out = static_cast<std::size_t>(sizes.back());
  Mlp batched(sizes, act, seed);
  Mlp serial(sizes, act, seed);
  Mlp no_d_input(sizes, act, seed);
  Rng rng(data_seed);
  const auto existing =
      random_vec(static_cast<int>(batched.param_count()), rng, 0.1);
  batched.grads() = existing;
  serial.grads() = existing;
  no_d_input.grads() = existing;
  const auto x = random_vec(rows * static_cast<int>(in), rng);
  const auto dy = random_vec(rows * static_cast<int>(out), rng);

  // Capacity above the row count: a trace is reused for short batches.
  auto trace = batched.batch_trace(rows + 3);
  batched.forward_trace_batch(x.data(), rows, trace);
  std::vector<double> d_input(static_cast<std::size_t>(rows) * in);
  batched.backward_batch(trace, dy.data(), d_input.data());
  auto trace2 = no_d_input.batch_trace(rows);
  no_d_input.forward_trace_batch(x.data(), rows, trace2);
  no_d_input.backward_batch(trace2, dy.data());

  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    const std::vector<double> xr(x.begin() + static_cast<long>(r * in),
                                 x.begin() + static_cast<long>((r + 1) * in));
    const std::vector<double> dyr(
        dy.begin() + static_cast<long>(r * out),
        dy.begin() + static_cast<long>((r + 1) * out));
    const Mlp::Trace reference = serial.forward_trace(xr);
    for (std::size_t o = 0; o < out; ++o) {
      ASSERT_EQ(trace.output()[r * out + o], reference.output[o])
          << "row " << r << " output " << o;
    }
    const auto d_in = serial.backward(reference, dyr);
    for (std::size_t i = 0; i < in; ++i) {
      ASSERT_EQ(d_input[r * in + i], d_in[i]) << "row " << r << " input " << i;
    }
  }
  for (std::size_t p = 0; p < serial.param_count(); ++p) {
    ASSERT_EQ(batched.grads()[p], serial.grads()[p]) << "param " << p;
    ASSERT_EQ(no_d_input.grads()[p], serial.grads()[p]) << "param " << p;
  }
}

}  // namespace

// For row counts on both sides of the kernel's row blocks and the update's
// 64-row chunks.
class MlpBatchKernel
    : public ::testing::TestWithParam<std::tuple<int, Activation>> {};

TEST_P(MlpBatchKernel, MatchesPerRowReferenceBitwise) {
  const auto& [rows, act] = GetParam();
  expect_batch_matches_per_row({18, 50, 50, 50, 21}, act, rows, 41,
                               static_cast<std::uint64_t>(rows));
}

// The range kernels a thread team runs: forward_rows and backward_rows
// over several row ranges, then accumulate_grads over several gradient-row
// ranges, must give backward_batch's and the per-row loop's bits.
TEST_P(MlpBatchKernel, RangeKernelsMatchWholeBatchBitwise) {
  const auto& [rows, act] = GetParam();
  const std::vector<int> sizes{18, 50, 50, 50, 21};
  const std::size_t in = 18, out = 21;
  Mlp ranged(sizes, act, 43);
  Mlp whole(sizes, act, 43);
  Mlp serial(sizes, act, 43);
  Rng rng(static_cast<std::uint64_t>(rows) + 1000);
  const auto existing =
      random_vec(static_cast<int>(ranged.param_count()), rng, 0.1);
  ranged.grads() = existing;
  whole.grads() = existing;
  serial.grads() = existing;
  const auto x = random_vec(rows * static_cast<int>(in), rng);
  const auto dy = random_vec(rows * static_cast<int>(out), rng);

  // Uneven row ranges, some empty, the middle one off the row blocks.
  const std::vector<int> row_cuts{0, 0, rows / 3, rows / 3 + (rows > 1),
                                  rows};
  auto trace = ranged.batch_trace(rows);
  trace.rows = rows;
  std::copy(x.begin(), x.end(), trace.input());
  std::copy(dy.begin(), dy.end(), trace.d_output());
  std::vector<double> d_input(static_cast<std::size_t>(rows) * in);
  // Last range first: no range reads rows outside itself.
  for (std::size_t k = row_cuts.size() - 1; k-- > 0;) {
    ranged.forward_rows(trace, row_cuts[k], row_cuts[k + 1]);
    ranged.backward_rows(trace, row_cuts[k], row_cuts[k + 1],
                         d_input.data());
  }
  // Gradient-row ranges that cut layers mid-way, in a shuffled order.
  const int units = ranged.grad_rows();
  ASSERT_EQ(units, 50 + 50 + 50 + 21);
  const std::vector<int> unit_cuts{0, 7, 50, 51, 120, units - 1, units};
  for (std::size_t k : {3u, 0u, 5u, 1u, 4u, 2u}) {
    ranged.accumulate_grads(trace, unit_cuts[k], unit_cuts[k + 1]);
  }

  auto whole_trace = whole.batch_trace(rows);
  whole.forward_trace_batch(x.data(), rows, whole_trace);
  std::vector<double> whole_d_input(static_cast<std::size_t>(rows) * in);
  whole.backward_batch(whole_trace, dy.data(), whole_d_input.data());

  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    const std::vector<double> xr(x.begin() + static_cast<long>(r * in),
                                 x.begin() + static_cast<long>((r + 1) * in));
    const std::vector<double> dyr(
        dy.begin() + static_cast<long>(r * out),
        dy.begin() + static_cast<long>((r + 1) * out));
    const Mlp::Trace reference = serial.forward_trace(xr);
    for (std::size_t o = 0; o < out; ++o) {
      ASSERT_EQ(trace.output()[r * out + o], reference.output[o])
          << "row " << r << " output " << o;
    }
    const auto d_in = serial.backward(reference, dyr);
    for (std::size_t i = 0; i < in; ++i) {
      ASSERT_EQ(d_input[r * in + i], d_in[i]) << "row " << r << " input " << i;
      ASSERT_EQ(whole_d_input[r * in + i], d_in[i]);
    }
  }
  for (std::size_t l = 0; l < trace.deltas.size(); ++l) {
    ASSERT_EQ(trace.deltas[l], whole_trace.deltas[l]) << "layer " << l;
  }
  for (std::size_t p = 0; p < serial.param_count(); ++p) {
    ASSERT_EQ(ranged.grads()[p], serial.grads()[p]) << "param " << p;
    ASSERT_EQ(whole.grads()[p], serial.grads()[p]) << "param " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, MlpBatchKernel,
    ::testing::Combine(::testing::Values(1, 3, 4, 5, 63, 64, 65, 256),
                       ::testing::Values(Activation::Tanh, Activation::Relu)));

// Every tail of the column blocks: the delta kernel runs a layer's input
// columns in blocks of 4, then 2, then 1, and the gradient kernel in blocks
// of 8, then 2, then 1. Input widths 1-9, 15, 50 and 51 reach every tail
// of both through layer 0's dLoss/dInput and gradient rows, and the hidden
// widths 13 and 11 add two more. Eleven rows end on a short row block.
class MlpKernelTails
    : public ::testing::TestWithParam<std::tuple<int, Activation>> {};

TEST_P(MlpKernelTails, MatchesPerRowReferenceBitwise) {
  const auto& [width, act] = GetParam();
  expect_batch_matches_per_row({width, 13, 11, 5}, act, 11, 47,
                               static_cast<std::uint64_t>(width));
}

INSTANTIATE_TEST_SUITE_P(
    InputWidths, MlpKernelTails,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 50,
                                         51),
                       ::testing::Values(Activation::Tanh, Activation::Relu)));

// The two-stage policy net, 15 -> 3 x 50 -> 21: a full 64-row update chunk
// and the short chunks 37 and 2, for both activations.
TEST(MlpBatchKernelShapes, TwoStagePolicyMatchesPerRowReferenceBitwise) {
  for (const Activation act : {Activation::Tanh, Activation::Relu}) {
    for (const int rows : {64, 37, 2}) {
      SCOPED_TRACE(std::to_string(rows) + " rows");
      expect_batch_matches_per_row({15, 50, 50, 50, 21}, act, rows, 47,
                                   static_cast<std::uint64_t>(rows));
    }
  }
}

// forward_rows and backward_rows over one row range that starts and ends
// off the kernels' 4-row blocks, on the two-stage policy net: the range's
// outputs and dLoss/dInput equal the per-row reference bitwise, and no row
// outside the range is written (a short block repeats its last row in the
// spare lanes and must drop them).
TEST(MlpBatchKernelShapes, RowRangesOffTheRowBlocksMatchPerRowReference) {
  const std::vector<int> sizes{15, 50, 50, 50, 21};
  const std::size_t in = 15, out = 21;
  constexpr int kRows = 64;
  constexpr double kUnwritten = 7.0;
  for (const Activation act : {Activation::Tanh, Activation::Relu}) {
    Mlp net(sizes, act, 53);
    Rng rng(59);
    const auto x = random_vec(kRows * static_cast<int>(in), rng);
    const auto dy = random_vec(kRows * static_cast<int>(out), rng);
    for (const auto& [begin, end] : std::vector<std::pair<int, int>>{
             {1, 6}, {3, 10}, {5, 64}, {62, 63}}) {
      SCOPED_TRACE("rows [" + std::to_string(begin) + ", " +
                   std::to_string(end) + ")");
      auto trace = net.batch_trace(kRows);
      trace.rows = kRows;
      std::copy(x.begin(), x.end(), trace.input());
      std::copy(dy.begin(), dy.end(), trace.d_output());
      for (std::size_t l = 1; l < trace.acts.size(); ++l) {
        std::fill(trace.acts[l].begin(), trace.acts[l].end(), kUnwritten);
      }
      for (std::size_t l = 0; l + 1 < trace.deltas.size(); ++l) {
        std::fill(trace.deltas[l].begin(), trace.deltas[l].end(), kUnwritten);
      }
      std::vector<double> d_input(static_cast<std::size_t>(kRows) * in,
                                  kUnwritten);
      net.forward_rows(trace, begin, end);
      net.backward_rows(trace, begin, end, d_input.data());

      for (int r = 0; r < kRows; ++r) {
        const std::size_t row = static_cast<std::size_t>(r);
        if (r < begin || r >= end) {
          for (std::size_t l = 1; l < trace.acts.size(); ++l) {
            const std::size_t w = trace.acts[l].size() / kRows;
            for (std::size_t k = row * w; k < (row + 1) * w; ++k) {
              ASSERT_EQ(trace.acts[l][k], kUnwritten) << "acts " << l;
            }
          }
          for (std::size_t l = 0; l + 1 < trace.deltas.size(); ++l) {
            const std::size_t w = trace.deltas[l].size() / kRows;
            for (std::size_t k = row * w; k < (row + 1) * w; ++k) {
              ASSERT_EQ(trace.deltas[l][k], kUnwritten) << "deltas " << l;
            }
          }
          for (std::size_t i = 0; i < in; ++i) {
            ASSERT_EQ(d_input[row * in + i], kUnwritten) << "row " << r;
          }
          continue;
        }
        const std::vector<double> xr(
            x.begin() + static_cast<long>(row * in),
            x.begin() + static_cast<long>((row + 1) * in));
        const std::vector<double> dyr(
            dy.begin() + static_cast<long>(row * out),
            dy.begin() + static_cast<long>((row + 1) * out));
        const Mlp::Trace reference = net.forward_trace(xr);
        for (std::size_t o = 0; o < out; ++o) {
          ASSERT_EQ(trace.output()[row * out + o], reference.output[o])
              << "row " << r << " output " << o;
        }
        const auto d_in = net.backward(reference, dyr);
        for (std::size_t i = 0; i < in; ++i) {
          ASSERT_EQ(d_input[row * in + i], d_in[i])
              << "row " << r << " input " << i;
        }
      }
    }
  }
}

// ------------------------------------------------- both kernel widths
namespace {

/// Runs the batch kernels at `lanes` until destroyed, then at the native
/// width again.
class KernelLanes {
 public:
  explicit KernelLanes(int lanes) { detail::set_kernel_lanes(lanes); }
  ~KernelLanes() { detail::set_kernel_lanes(detail::native_kernel_lanes()); }
  KernelLanes(const KernelLanes&) = delete;
  KernelLanes& operator=(const KernelLanes&) = delete;
};

::testing::AssertionResult same_bits(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " and " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// A batch pass's outputs, dLoss/dInput and gradients, row-major.
struct PassResult {
  std::vector<double> output, d_input, grads;
};

/// The per-row reference: forward_trace + backward, one row at a time, onto
/// the gradients `existing`.
PassResult per_row_pass(const std::vector<int>& sizes, Activation act,
                        const std::vector<double>& existing,
                        const std::vector<double>& x,
                        const std::vector<double>& dy, int rows) {
  const std::size_t in = static_cast<std::size_t>(sizes.front());
  const std::size_t out = static_cast<std::size_t>(sizes.back());
  Mlp net(sizes, act, 61);
  net.grads() = existing;
  PassResult result;
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    const std::vector<double> xr(x.begin() + static_cast<long>(r * in),
                                 x.begin() + static_cast<long>((r + 1) * in));
    const std::vector<double> dyr(
        dy.begin() + static_cast<long>(r * out),
        dy.begin() + static_cast<long>((r + 1) * out));
    const Mlp::Trace trace = net.forward_trace(xr);
    result.output.insert(result.output.end(), trace.output.begin(),
                         trace.output.end());
    const auto d_in = net.backward(trace, dyr);
    result.d_input.insert(result.d_input.end(), d_in.begin(), d_in.end());
  }
  result.grads = net.grads();
  return result;
}

/// The same pass on the range kernels at the current width, split as a
/// thread team splits it: forward_rows and backward_rows over the row
/// ranges between `cuts`, last range first, then accumulate_grads over
/// gradient-row ranges of 7 rows, which cut layers mid-way.
PassResult ranged_pass(const std::vector<int>& sizes, Activation act,
                       const std::vector<double>& existing,
                       const std::vector<double>& x,
                       const std::vector<double>& dy, int rows,
                       const std::vector<int>& cuts) {
  Mlp net(sizes, act, 61);
  net.grads() = existing;
  auto trace = net.batch_trace(rows);
  trace.rows = rows;
  std::copy(x.begin(), x.end(), trace.input());
  std::copy(dy.begin(), dy.end(), trace.d_output());
  PassResult result;
  result.d_input.assign(static_cast<std::size_t>(rows) *
                            static_cast<std::size_t>(sizes.front()),
                        0.0);
  for (std::size_t k = cuts.size() - 1; k-- > 0;) {
    net.forward_rows(trace, cuts[k], cuts[k + 1]);
    net.backward_rows(trace, cuts[k], cuts[k + 1], result.d_input.data());
  }
  for (int u = 0; u < net.grad_rows(); u += 7) {
    net.accumulate_grads(trace, u, std::min(u + 7, net.grad_rows()));
  }
  result.output = trace.acts.back();
  result.grads = net.grads();
  return result;
}

}  // namespace

// Every kernel at two and at four lanes (where the CPU has AVX2) in one
// process, bitwise against the per-row reference and against each other.
// A net {w, w, 5, w} gives the forward's output blocks (8, 4, 2, 1) and the
// delta and gradient kernels' column blocks (16, 8, 4, 2, 1) every tail
// for the widths 1-17, 31-33, 50 and 51; rows 1-9 end on every short row
// block, and the middle row range starts and ends off the 4-row blocks.
class MlpKernelWidths
    : public ::testing::TestWithParam<std::tuple<int, Activation>> {};

TEST_P(MlpKernelWidths, BothWidthsMatchPerRowReferenceBitwise) {
  const auto& [width, act] = GetParam();
  const std::vector<int> sizes{width, width, 5, width};
  std::vector<int> widths{2};
  if (detail::native_kernel_lanes() == 4) widths.push_back(4);
  for (int rows = 1; rows <= 9; ++rows) {
    SCOPED_TRACE(std::to_string(rows) + " rows");
    Rng rng(static_cast<std::uint64_t>(width * 100 + rows));
    const std::size_t n_params = Mlp(sizes, act, 61).param_count();
    const auto existing = random_vec(static_cast<int>(n_params), rng, 0.1);
    const auto x = random_vec(rows * width, rng);
    const auto dy = random_vec(rows * width, rng);
    const PassResult reference =
        per_row_pass(sizes, act, existing, x, dy, rows);
    const std::vector<std::vector<int>> splits{
        {0, rows}, {0, std::min(1, rows), std::max(rows - 1, 1), rows}};
    std::vector<PassResult> by_width;
    by_width.reserve(widths.size() * splits.size());
    for (const int lanes : widths) {
      SCOPED_TRACE(std::to_string(lanes) + " lanes");
      const KernelLanes use(lanes);
      for (const auto& cuts : splits) {
        const PassResult got =
            ranged_pass(sizes, act, existing, x, dy, rows, cuts);
        ASSERT_TRUE(same_bits(got.output, reference.output)) << "outputs";
        ASSERT_TRUE(same_bits(got.d_input, reference.d_input)) << "d_input";
        ASSERT_TRUE(same_bits(got.grads, reference.grads)) << "gradients";
        by_width.push_back(got);
      }
      Mlp net(sizes, act, 61);
      const auto batch = net.forward_batch(x, rows);
      ASSERT_TRUE(same_bits(batch, reference.output)) << "forward_batch";
    }
    for (std::size_t k = 2; k < by_width.size(); ++k) {
      ASSERT_TRUE(same_bits(by_width[k].output, by_width[k % 2].output));
      ASSERT_TRUE(same_bits(by_width[k].d_input, by_width[k % 2].d_input));
      ASSERT_TRUE(same_bits(by_width[k].grads, by_width[k % 2].grads));
    }
  }
  if (widths.size() == 1) {
    GTEST_SKIP() << "no AVX2 here: the four-lane kernels were not run";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, MlpKernelWidths,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                         12, 13, 14, 15, 16, 17, 31, 32, 33,
                                         50, 51),
                       ::testing::Values(Activation::Tanh, Activation::Relu)));

// The native width is glibc's answer where glibc has one, so a rerun with
// glibc.cpu.hwcaps=-AVX2 in GLIBC_TUNABLES runs the two-lane kernels.
TEST(MlpKernelLanes, NativeWidthIsGlibcsAvx2Answer) {
#ifdef CPU_FEATURE_ACTIVE
  EXPECT_EQ(detail::native_kernel_lanes(), CPU_FEATURE_ACTIVE(AVX2) ? 4 : 2);
  EXPECT_EQ(detail::kernel_lanes(), detail::native_kernel_lanes());
#else
  GTEST_SKIP() << "no glibc CPU_FEATURE_ACTIVE on this platform";
#endif
}

TEST(MlpKernelLanes, RejectsWidthsThisCpuCannotRun) {
  EXPECT_THROW(detail::set_kernel_lanes(0), std::invalid_argument);
  EXPECT_THROW(detail::set_kernel_lanes(3), std::invalid_argument);
  EXPECT_THROW(detail::set_kernel_lanes(8), std::invalid_argument);
  if (detail::native_kernel_lanes() == 2) {
    EXPECT_THROW(detail::set_kernel_lanes(4), std::invalid_argument);
  }
  EXPECT_NO_THROW(detail::set_kernel_lanes(2));
  EXPECT_EQ(detail::kernel_lanes(), 2);
  detail::set_kernel_lanes(detail::native_kernel_lanes());
  EXPECT_EQ(detail::kernel_lanes(), detail::native_kernel_lanes());
}

// forward_batch is const and keeps its transposed rows per thread: four
// threads on one net, each with its own batch, get forward()'s bits.
TEST(MlpKernelLanes, ForwardBatchFromSeveralThreadsMatchesForward) {
  const Mlp net({15, 50, 50, 50, 21}, Activation::Tanh, 67);
  std::vector<std::vector<double>> inputs(4), outputs(4);
  Rng rng(71);
  for (std::size_t t = 0; t < 4; ++t) {
    inputs[t] = random_vec(static_cast<int>(t + 5) * 15, rng);
  }
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) {
        outputs[t] = net.forward_batch(inputs[t], static_cast<int>(t) + 5);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t r = 0; r < t + 5; ++r) {
      const std::vector<double> xr(
          inputs[t].begin() + static_cast<long>(r * 15),
          inputs[t].begin() + static_cast<long>((r + 1) * 15));
      const std::vector<double> yr(
          outputs[t].begin() + static_cast<long>(r * 21),
          outputs[t].begin() + static_cast<long>((r + 1) * 21));
      ASSERT_TRUE(same_bits(yr, net.forward(xr))) << "thread " << t;
    }
  }
}

TEST(MlpBatchTrace, RejectsTraceThatDoesNotFit) {
  Mlp mlp({4, 8, 2}, Activation::Tanh, 1);
  Mlp other({4, 9, 2}, Activation::Tanh, 1);
  const std::vector<double> x(4 * 3, 0.5);
  auto small = mlp.batch_trace(2);
  EXPECT_THROW(mlp.forward_trace_batch(x.data(), 3, small),
               std::invalid_argument);
  auto foreign = other.batch_trace(3);
  EXPECT_THROW(mlp.forward_trace_batch(x.data(), 3, foreign),
               std::invalid_argument);
  EXPECT_THROW(mlp.batch_trace(-1), std::invalid_argument);
  auto fits = mlp.batch_trace(3);
  EXPECT_NO_THROW(mlp.forward_trace_batch(x.data(), 3, fits));
}

TEST(Mlp, SaveLoadRoundTrip) {
  Mlp mlp({3, 10, 2}, Activation::Tanh, 11);
  std::stringstream ss;
  mlp.save(ss);
  Mlp loaded = Mlp::load(ss);
  Rng rng(4);
  const auto x = random_vec(3, rng);
  EXPECT_EQ(mlp.forward(x), loaded.forward(x));
}

TEST(Mlp, LoadRejectsGarbage) {
  std::stringstream ss("not_a_model 3");
  EXPECT_THROW(Mlp::load(ss), std::runtime_error);
}

TEST(Mlp, LoadRoundTripsRelu) {
  Mlp mlp({2, 4, 1}, Activation::Relu, 5);
  std::stringstream ss;
  mlp.save(ss);
  Mlp loaded = Mlp::load(ss);
  const std::vector<double> x{0.3, -0.7};
  EXPECT_EQ(mlp.forward(x), loaded.forward(x));
}

TEST(Mlp, LoadRejectsUnknownActivation) {
  std::stringstream ss("mlp 2\n2 1\nsigmoid\n0.1 0.2 0.3\n");
  EXPECT_THROW(Mlp::load(ss), std::runtime_error);
}

TEST(Mlp, LoadRejectsNegativeLayerSize) {
  std::stringstream ss("mlp 2\n3 -2\ntanh\n");
  EXPECT_THROW(Mlp::load(ss), std::runtime_error);
}

TEST(Mlp, LoadRejectsHugeLayerSize) {
  std::stringstream ss("mlp 2\n3 2000000000\ntanh\n");
  EXPECT_THROW(Mlp::load(ss), std::runtime_error);
}

TEST(Mlp, LoadRejectsHugeLayerCount) {
  std::stringstream ss("mlp 4000000000\n3 2\ntanh\n");
  EXPECT_THROW(Mlp::load(ss), std::runtime_error);
}

TEST(Mlp, LoadRejectsHugeParameterTotal) {
  // Every width is in range, but the product is not.
  std::stringstream ss("mlp 3\n65536 65536 2\ntanh\n");
  EXPECT_THROW(Mlp::load(ss), std::runtime_error);
}

TEST(Adam, MinimizesQuadraticBowl) {
  // f(p) = sum (p_i - c_i)^2; Adam should converge near c.
  const std::vector<double> target{1.0, -2.0, 0.5};
  std::vector<double> p{0.0, 0.0, 0.0};
  Adam adam(p.size(), 0.05);
  std::vector<double> grads(p.size());
  for (int step = 0; step < 2000; ++step) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      grads[i] = 2.0 * (p[i] - target[i]);
    }
    adam.step(p, grads);
  }
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(p[i], target[i], 1e-3);
  }
}

TEST(Adam, LrAccessors) {
  Adam adam(3, 1e-3);
  EXPECT_DOUBLE_EQ(adam.lr(), 1e-3);
  adam.set_lr(5e-4);
  EXPECT_DOUBLE_EQ(adam.lr(), 5e-4);
}

// ---------------------------------------------------------------- softmax

TEST(Categorical, SoftmaxSumsToOne) {
  const std::vector<double> logits{1.0, 2.0, 3.0, -10.0, 0.0, 10.0};
  const auto p1 = softmax_slice(logits, 0, 3);
  const auto p2 = softmax_slice(logits, 3, 3);
  double s1 = 0.0, s2 = 0.0;
  for (double p : p1) s1 += p;
  for (double p : p2) s2 += p;
  EXPECT_NEAR(s1, 1.0, 1e-12);
  EXPECT_NEAR(s2, 1.0, 1e-12);
  EXPECT_GT(p1[2], p1[0]);  // larger logit, larger probability
}

TEST(Categorical, SoftmaxStableForHugeLogits) {
  const std::vector<double> logits{1000.0, 999.0, 0.0};
  const auto p = softmax_slice(logits, 0, 3);
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_GT(p[0], p[1]);
}

TEST(Categorical, SamplingMatchesProbabilities) {
  Rng rng(17);
  const std::vector<double> probs{0.6, 0.3, 0.1};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(sample_categorical(probs, rng))];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.6, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.1, 0.01);
}

TEST(Categorical, ArgmaxAndEntropyBounds) {
  EXPECT_EQ(argmax({0.2, 0.5, 0.3}), 1);
  EXPECT_NEAR(entropy({1.0, 0.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(entropy({1.0 / 3, 1.0 / 3, 1.0 / 3}), std::log(3.0), 1e-9);
}
