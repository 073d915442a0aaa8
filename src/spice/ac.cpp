#include "spice/ac.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "spice/sweep.hpp"
#include "spice/units.hpp"

namespace autockt::spice {

namespace {

using detail::sweep_freq;
using detail::sweep_points;

std::complex<double> probe_of(const std::vector<std::complex<double>>& x,
                              NodeId probe_p, NodeId probe_m) {
  std::complex<double> v{0.0, 0.0};
  if (probe_p != kGround) v += x[probe_p - 1];
  if (probe_m != kGround) v -= x[probe_m - 1];
  return v;
}

util::Error singular_error(double freq) {
  return util::Error{"AC matrix singular at f=" + std::to_string(freq), 2};
}

}  // namespace

util::Expected<std::vector<AcPoint>> ac_sweep(const Circuit& circuit,
                                              const OpPoint& op, NodeId probe_p,
                                              NodeId probe_m,
                                              const AcOptions& options) {
  if (auto bad = detail::sweep_error(options, "AC sweep", 2)) return *bad;
  std::optional<SimWorkspace> scratch;
  SimWorkspace* ws = options.workspace;
  if (ws == nullptr) {
    scratch.emplace(circuit, SimWorkspace::Sides::Complex);
    ws = &*scratch;
  }
  return std::move(
      ac_sweep_batch({&circuit}, {&op}, probe_p, probe_m, options, *ws)
          .front());
}

std::vector<util::Expected<std::vector<AcPoint>>> ac_sweep_batch(
    const std::vector<const Circuit*>& circuits,
    const std::vector<const OpPoint*>& ops, NodeId probe_p, NodeId probe_m,
    const AcOptions& options, SimWorkspace& ws) {
  kernel_counters::CallScope counts;
  const std::size_t K = circuits.size();
  std::vector<util::Expected<std::vector<AcPoint>>> results;
  if (auto bad = detail::sweep_error(options, "AC sweep", 2)) {
    results.assign(K, *bad);
    return results;
  }
  results.assign(K, std::vector<AcPoint>{});
  if (K == 0) return results;
  const int total =
      sweep_points(options.f_start, options.f_stop, options.points_per_decade);

  // One stamping pass per lane serves the whole sweep; each frequency point
  // is a numeric-only refactorization of G + j*omega*C.
  std::vector<char> live(K, 1);
  std::vector<std::vector<AcPoint>> sweeps(K);
  for (std::size_t l = 0; l < K; ++l) {
    if (!ws.compatible(*circuits[l]) || !ws.has_complex()) {
      results[l] =
          util::Error{"AC sweep: workspace does not match the circuit", 2};
      live[l] = 0;
    }
  }
  // No lane fits `ws` (e.g. it has no complex side): nothing to factor.
  if (std::count(live.begin(), live.end(), 1) == 0) return results;
  ws.begin_complex(K);
  for (std::size_t l = 0; l < K; ++l) {
    if (live[l] == 0) continue;
    ComplexStamp ctx = ws.stamp_complex(l, ops[l]->node_v);
    circuits[l]->stamp_complex(ctx);
    sweeps[l].reserve(static_cast<std::size_t>(total));
  }

  std::vector<std::complex<double>> x_lane;
  for (int i = 0; i < total; ++i) {
    const double freq = sweep_freq(options.f_start, options.f_stop, i, total);
    ws.factor_complex(2.0 * kPi * freq);
    ws.solve_complex();
    for (std::size_t l = 0; l < K; ++l) {
      if (live[l] == 0) continue;
      if (!ws.complex_lane_solvable(l)) {
        results[l] = singular_error(freq);
        live[l] = 0;
        continue;
      }
      ws.complex_lane_solution(l, x_lane);
      sweeps[l].push_back({freq, probe_of(x_lane, probe_p, probe_m)});
    }
  }
  for (std::size_t l = 0; l < K; ++l) {
    if (live[l] != 0) results[l] = std::move(sweeps[l]);
  }
  return results;
}

util::Expected<std::vector<std::complex<double>>> ac_solve_at(
    const Circuit& circuit, const OpPoint& op, double freq,
    const AcOptions& options) {
  std::optional<SimWorkspace> scratch;
  SimWorkspace* ws = options.workspace;
  if (ws != nullptr &&
      (!ws->compatible(circuit) || !ws->has_complex())) {
    return util::Error{"AC solve: workspace does not match the circuit", 2};
  }
  kernel_counters::CallScope counts;
  if (ws == nullptr) {
    scratch.emplace(circuit, SimWorkspace::Sides::Complex);
    ws = &*scratch;
  }
  ws->begin_complex(1);
  ComplexStamp ctx = ws->stamp_complex(0, op.node_v);
  circuit.stamp_complex(ctx);
  if (!ws->factor_complex(2.0 * kPi * freq)) return singular_error(freq);
  ws->solve_complex();
  std::vector<std::complex<double>> x;
  ws->complex_lane_solution(0, x);
  return x;
}

}  // namespace autockt::spice
