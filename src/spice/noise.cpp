#include "spice/noise.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <optional>
#include <string>

#include "spice/sweep.hpp"
#include "spice/units.hpp"

namespace autockt::spice {

double NoiseResult::total_output_vrms() const {
  return std::sqrt(std::max(total_output_v2, 0.0));
}

util::Expected<NoiseResult> noise_sweep(const Circuit& circuit,
                                        const OpPoint& op, NodeId probe_p,
                                        NodeId probe_m,
                                        const NoiseOptions& options) {
  if (auto bad = detail::sweep_error(options, "noise sweep", 4)) return *bad;
  std::optional<SimWorkspace> scratch;
  SimWorkspace* ws = options.workspace;
  if (ws == nullptr) {
    scratch.emplace(circuit, SimWorkspace::Sides::Complex);
    ws = &*scratch;
  }
  return std::move(
      noise_sweep_batch({&circuit}, {&op}, probe_p, probe_m, options, *ws)
          .front());
}

std::vector<util::Expected<NoiseResult>> noise_sweep_batch(
    const std::vector<const Circuit*>& circuits,
    const std::vector<const OpPoint*>& ops, NodeId probe_p, NodeId probe_m,
    const NoiseOptions& options, SimWorkspace& ws) {
  kernel_counters::CallScope counts;
  const std::size_t K = circuits.size();
  std::vector<util::Expected<NoiseResult>> results;
  if (auto bad = detail::sweep_error(options, "noise sweep", 4)) {
    results.assign(K, *bad);
    return results;
  }
  results.assign(K, NoiseResult{});
  if (K == 0) return results;
  const std::size_t n = ws.num_unknowns();
  const int total = detail::sweep_points(options.f_start, options.f_stop,
                                         options.points_per_decade);
  const double temp_k = 300.0;

  // Adjoint stimulus selecting the probe voltage — identical for every lane
  // (shared topology means shared node ids), so one broadcast transposed
  // solve serves the whole batch.
  std::vector<std::complex<double>> c(n, {0.0, 0.0});
  if (probe_p != kGround) c[probe_p - 1] += 1.0;
  if (probe_m != kGround) c[probe_m - 1] -= 1.0;

  std::vector<char> live(K, 1);
  std::vector<NoiseResult> lane_results(K);
  for (std::size_t l = 0; l < K; ++l) {
    if (!ws.compatible(*circuits[l]) || !ws.has_complex()) {
      results[l] = util::Error{
          "noise sweep: workspace does not match the circuit", 4};
      live[l] = 0;
    }
  }
  // No lane fits `ws` (e.g. it has no complex side): nothing to factor.
  if (std::count(live.begin(), live.end(), 1) == 0) return results;
  // One stamping pass per lane; every frequency is a numeric-only
  // refactorization.
  ws.begin_complex(K);
  for (std::size_t l = 0; l < K; ++l) {
    if (live[l] == 0) continue;
    ComplexStamp ctx = ws.stamp_complex(l, ops[l]->node_v);
    circuits[l]->stamp_complex(ctx);
    lane_results[l].freq.reserve(static_cast<std::size_t>(total));
    lane_results[l].out_psd.reserve(static_cast<std::size_t>(total));
  }

  std::vector<NoiseSource> sources;
  std::vector<std::complex<double>> xa;
  for (int i = 0; i < total; ++i) {
    const double freq =
        detail::sweep_freq(options.f_start, options.f_stop, i, total);
    const double omega = 2.0 * kPi * freq;
    ws.factor_complex(omega);
    ws.solve_complex_transposed(c);
    for (std::size_t l = 0; l < K; ++l) {
      if (live[l] == 0) continue;
      if (!ws.complex_lane_solvable(l)) {
        results[l] = util::Error{
            "noise matrix singular at f=" + std::to_string(freq), 4};
        live[l] = 0;
        continue;
      }
      // Adjoint: x_a = Y^-T c; |h|^2-weighted PSD sum over all sources.
      ws.complex_lane_solution(l, xa);
      double psd = 0.0;
      circuits[l]->collect_noise(ops[l]->node_v, freq, temp_k, sources);
      for (const NoiseSource& src : sources) {
        std::complex<double> h{0.0, 0.0};
        if (src.n1 != kGround) h -= xa[src.n1 - 1];
        if (src.n2 != kGround) h += xa[src.n2 - 1];
        psd += std::norm(h) * src.psd;
      }
      lane_results[l].freq.push_back(freq);
      lane_results[l].out_psd.push_back(psd);
    }
  }

  // Trapezoidal integration in linear frequency over the log-spaced grid.
  for (std::size_t l = 0; l < K; ++l) {
    if (live[l] == 0) continue;
    NoiseResult& r = lane_results[l];
    double acc = 0.0;
    for (std::size_t i = 0; i + 1 < r.freq.size(); ++i) {
      acc += 0.5 * (r.out_psd[i] + r.out_psd[i + 1]) *
             (r.freq[i + 1] - r.freq[i]);
    }
    r.total_output_v2 = acc;
    results[l] = std::move(r);
  }
  return results;
}

}  // namespace autockt::spice
