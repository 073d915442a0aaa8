#include "circuits/problems.hpp"

#include <stdexcept>
#include <utility>

#include "circuits/ngm_ota.hpp"
#include "circuits/tia.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "eval/cached_backend.hpp"
#include "eval/disk_log_store.hpp"
#include "eval/function_backend.hpp"
#include "eval/process_pool_backend.hpp"
#include "spice/workspace.hpp"
#include "util/fmt.hpp"

namespace autockt::circuits {

namespace {

/// The spice layer's process-wide kernel counters projected into EvalStats.
/// ProcessPoolBackend workers attach this as Options::leaf_stats so their
/// reply deltas carry the kernel work done in the child — which the
/// parent's own spice::kernel_stats_snapshot() can never see.
eval::EvalStats kernel_leaf_stats() {
  eval::EvalStats s;
  const spice::KernelStats k = spice::kernel_stats_snapshot();
  s.newton_iterations = k.newton_iterations;
  s.symbolic_factorizations = k.symbolic_factorizations;
  s.numeric_factorizations = k.numeric_factorizations;
  s.dense_fallbacks = k.dense_fallbacks;
  s.warm_start_attempts = k.warm_start_attempts;
  s.warm_start_hits = k.warm_start_hits;
  s.batch_refactorizations = k.batch_refactorizations;
  return s;
}

/// PEX parasitic severity used for the transfer experiment. Chosen so that
/// schematic-vs-PEX spec differences land in the 5-25% band the paper's
/// Fig. 14 histogram shows.
pex::ParasiticModel transfer_parasitics() {
  pex::ParasiticModel pm;
  pm.cap_fixed = 15e-15;
  pm.cap_per_width = 7.0e-9;
  pm.variation = 0.3;
  pm.salt = 0xba6;  // BAG-generated layout stand-in
  return pm;
}

/// A builtin problem's one evaluator: grid points map to design parameters,
/// the circuit's `_batch` simulator runs them as lanes, and each lane's
/// result maps to its spec vector. A simulator may run several lanes per
/// point (PEX: one per corner); the result then has one entry per lane.
template <typename ToParams, typename Simulate, typename ToSpecs>
eval::BatchEvalFn batch_evaluator(ToParams to_params, Simulate simulate,
                                  ToSpecs to_specs) {
  return [=](const std::vector<ParamVector>& points,
             const std::vector<eval::OpHint*>& hints) {
    std::vector<decltype(to_params(points.front()))> params;
    params.reserve(points.size());
    for (const ParamVector& idx : points) params.push_back(to_params(idx));
    std::vector<util::Expected<SpecVector>> out;
    out.reserve(points.size());
    for (auto& res : simulate(params, hints)) {
      if (res.ok()) {
        out.push_back(to_specs(*res));
      } else {
        out.push_back(res.error());
      }
    }
    return out;
  };
}

}  // namespace

std::uint64_t problem_fingerprint(const std::string& name,
                                  const std::vector<ParamDef>& params,
                                  const std::vector<SpecDef>& specs,
                                  const std::vector<std::string>& extra) {
  // Canonical text rendering, hashed with FNV-1a. Doubles go through
  // format_g17 so the rendering (hence the fingerprint) is exact and
  // locale-independent.
  std::string canon = "autockt-problem-v1\nn " + name + "\n";
  for (const ParamDef& p : params) {
    canon += "p " + p.name + ' ' + util::format_g17(p.start) + ' ' +
             util::format_g17(p.end) + ' ' + util::format_g17(p.step) + "\n";
  }
  for (const SpecDef& s : specs) {
    canon += "s " + s.name + ' ' +
             std::to_string(static_cast<int>(s.sense)) + ' ' +
             util::format_g17(s.sample_lo) + ' ' +
             util::format_g17(s.sample_hi) + ' ' +
             util::format_g17(s.norm_const) + ' ' +
             util::format_g17(s.fail_value) + "\n";
  }
  for (const std::string& line : extra) {
    canon += "x " + line + "\n";
  }
  return eval::fingerprint64(canon);
}

std::shared_ptr<eval::EvalBackend> make_standard_backend(
    eval::BatchEvalFn batch_fn, const std::string& name,
    const ProblemOptions& options, std::uint64_t cache_fingerprint,
    std::size_t sims_per_point) {
  std::shared_ptr<eval::EvalBackend> backend;
  if (options.eval_workers > 0) {
    // Distributed stack: Cache(ProcessPool(worker: Function leaf)). The
    // factory runs in each CHILD after fork, so the leaf is born there, and
    // each worker's shard of a batch still runs as lockstep lanes. Crash
    // handling lives inside ProcessPoolBackend.
    eval::ProcessPoolBackend::Options popts;
    popts.workers = options.eval_workers;
    popts.inner_name = name;
    popts.leaf_stats = kernel_leaf_stats;
    backend = std::make_shared<eval::ProcessPoolBackend>(
        [batch_fn = std::move(batch_fn), name,
         sims_per_point]() -> std::shared_ptr<eval::EvalBackend> {
          return std::make_shared<eval::FunctionBackend>(batch_fn, name,
                                                         sims_per_point);
        },
        popts);
  } else {
    backend = std::make_shared<eval::FunctionBackend>(std::move(batch_fn),
                                                      name, sims_per_point);
  }
  if (!options.cache) return backend;
  // The memo cache goes outermost so hits never reach the workers or the
  // simulator. With cache_path set the memo is a DiskLogStore — a failed
  // open (fingerprint mismatch, unwritable directory) throws: a persistent
  // cache silently serving the wrong problem would be far worse than
  // failing construction.
  if (!options.cache_path.empty()) {
    auto store = eval::DiskLogStore::open(options.cache_path,
                                          cache_fingerprint);
    if (!store.ok()) throw std::runtime_error(store.error().message);
    return std::make_shared<eval::CachedBackend>(std::move(backend),
                                                 store.value());
  }
  return std::make_shared<eval::CachedBackend>(std::move(backend));
}

SizingProblem make_tia_problem(const ProblemOptions& options) {
  SizingProblem prob;
  prob.name = "tia";
  prob.description =
      "Transimpedance amplifier, ptm45 schematic (paper Fig. 4 / Table I)";
  // Paper's action space, verbatim.
  prob.params = {
      {"wn_um", 2.0, 10.0, 2.0},      // NMOS width, um
      {"mn", 2.0, 32.0, 2.0},         // NMOS multiplier
      {"wp_um", 2.0, 10.0, 2.0},      // PMOS width, um
      {"mp", 2.0, 32.0, 2.0},         // PMOS multiplier
      {"rf_series", 2.0, 20.0, 2.0},  // feedback units in series
      {"rf_parallel", 1.0, 20.0, 1.0} // feedback strings in parallel
  };
  // Spec sampling ranges: paper shapes (settling / cutoff / noise),
  // recalibrated to the ptm45 surrogate's achievable region.
  prob.specs = {
      {"settling_time_s", SpecSense::LessEq, 2.2e-10, 9.0e-10, 4.5e-10, 3e-8},
      {"cutoff_freq_hz", SpecSense::GreaterEq, 1.2e9, 4.0e9, 2.2e9, 1e5},
      {"input_noise_vrms", SpecSense::LessEq, 1.9e-4, 3.0e-4, 2.4e-4, 1e-1},
  };
  prob.paper_sim_seconds = 0.025;

  const spice::TechCard card = spice::TechCard::ptm45();
  const auto param_defs = prob.params;
  prob.backend = make_standard_backend(
      batch_evaluator(
          [param_defs](const ParamVector& idx) {
            return tia_params_from_grid(param_defs, idx);
          },
          [card](const std::vector<TiaParams>& params,
                 const std::vector<eval::OpHint*>& hints) {
            return simulate_tia_batch(params, card, {}, hints);
          },
          [](const TiaResult& r) {
            return SpecVector{r.settling_time, r.cutoff_freq, r.input_noise};
          }),
      "tia_sim", options,
      problem_fingerprint(prob.name, prob.params, prob.specs));
  prob.validate();
  return prob;
}

SizingProblem make_two_stage_problem(const ProblemOptions& options) {
  SizingProblem prob;
  prob.name = "two_stage_opamp";
  prob.description =
      "Two-stage Miller op-amp, ptm45 schematic (paper Fig. 6 / Table II)";
  // Paper: every width on a 100-point grid plus a 100-point Cc grid
  // => 1e14 combinations. The paper uses one 0.5 um unit for every width;
  // we keep the grid sizes but pick per-device units (widths in um below)
  // so that the frontier designs of OUR technology surrogate sit mid-grid
  // — the same expert ranging the paper itself applies to the negative-gm
  // circuit (Fig. 9). See docs/EXPERIMENTS.md "calibration" notes.
  prob.params = {
      {"w12_um", 0.25, 25.0, 0.25},  // input pair
      {"w34_um", 0.05, 5.0, 0.05},   // mirror load
      {"w5_um", 0.05, 5.0, 0.05},    // tail
      {"w6_um", 0.75, 75.0, 0.75},   // second-stage PMOS
      {"w7_um", 0.35, 35.0, 0.35},   // output sink
      {"w8_um", 0.25, 25.0, 0.25},   // bias diode
      {"cc_pf", 0.02, 2.0, 0.02},    // Miller cap
  };
  // Paper ranges: gain [200,400] V/V, UGBW [1e6, 2.5e7] Hz, PM >= 60 deg,
  // ibias [0.1, 10] mA (minimized).
  // Target sampling ranges keep the paper's *difficulty* rather than its
  // absolute numbers: our level-1-class technology surrogate is more
  // forgiving than BSIM 45 nm, so ranges are pushed toward the Pareto
  // frontier until P(random design satisfies random target) ~ 1e-3 — the
  // density regime in which the paper's GA needs ~1e3 simulations
  // (Table II) while a trained agent still generalizes to ~96% of targets.
  prob.specs = {
      {"gain_vv", SpecSense::GreaterEq, 2000.0, 2600.0, 2300.0, 0.0},
      {"ugbw_hz", SpecSense::GreaterEq, 3.0e7, 6.5e7, 4.5e7, 0.0},
      {"phase_margin_deg", SpecSense::GreaterEq, 60.0, 60.0, 60.0, 0.0},
      // The low end sits below the topology's feasible floor on purpose:
      // the paper's Fig. 8 shows exactly such an unreachable low-power
      // band, and hypothesizes those targets are physically unreachable.
      {"ibias_a", SpecSense::Minimize, 8.0e-5, 1.6e-4, 1.2e-4, 1.0},
  };
  prob.paper_sim_seconds = 0.025;

  const spice::TechCard card = spice::TechCard::ptm45();
  const auto param_defs = prob.params;
  prob.backend = make_standard_backend(
      batch_evaluator(
          [param_defs](const ParamVector& idx) {
            return two_stage_params_from_grid(param_defs, idx);
          },
          [card](const std::vector<TwoStageParams>& params,
                 const std::vector<eval::OpHint*>& hints) {
            return simulate_two_stage_batch(params, card, {}, hints);
          },
          [](const OpampResult& r) {
            return SpecVector{r.gain, r.ugbw, r.phase_margin, r.bias_current};
          }),
      "two_stage_sim", options,
      problem_fingerprint(prob.name, prob.params, prob.specs));
  prob.validate();
  return prob;
}

namespace {

SizingProblem make_ngm_problem_base() {
  SizingProblem prob;
  prob.name = "ngm_ota";
  prob.description =
      "Two-stage OTA with negative-gm load, finfet16 (paper Fig. 9 / "
      "Table III)";
  // Fin-count grids; ~1e11 combinations (paper: "order of 1e11"). The
  // cross-coupled pair's range sits below the diode load's so that most of
  // the grid (and in particular its centre, the episode start point) avoids
  // first-stage latch-up — mirroring the expert-chosen ranges of Fig. 9.
  // The sink range is chosen so the grid centre satisfies the stage-2
  // current-balance relation nf_sink ~ nf_tail*nf_cs/(2*(nf_diode+nf_cross))
  // (docs/DESIGN.md): episodes then start from a live, measurable design.
  // The cross-coupled range deliberately extends into latch-up territory
  // (nf_cross can exceed nf_diode for part of the grid): most random
  // sizings of this circuit are broken — the property that makes the
  // paper's GA need hundreds of simulations — while the grid centre
  // remains a live, current-balanced design the agent starts from.
  prob.params = {
      {"nf_in", 1.0, 100.0, 1.0},   {"nf_diode", 22.0, 80.0, 2.0},
      {"nf_cross", 2.0, 60.0, 2.0}, {"nf_tail", 2.0, 100.0, 2.0},
      {"nf_cs", 2.0, 100.0, 2.0},   {"nf_sink", 2.0, 40.0, 2.0},
      {"cc_pf", 0.1, 3.0, 0.1},
  };
  // Paper shape: gain in a wide low band, UGBW band, PM target sampled in
  // [60, 75] (the two-sided sampling that aids PEX transfer, Section
  // III-C/D). Numeric ranges recalibrated to the finfet16 surrogate's
  // frontier (see docs/EXPERIMENTS.md).
  prob.specs = {
      {"gain_vv", SpecSense::GreaterEq, 100.0, 350.0, 180.0, 0.0},
      {"ugbw_hz", SpecSense::GreaterEq, 3.0e8, 8.0e8, 4.5e8, 0.0},
      {"phase_margin_deg", SpecSense::GreaterEq, 60.0, 75.0, 65.0, 0.0},
  };
  return prob;
}

}  // namespace

SizingProblem make_ngm_problem(const ProblemOptions& options) {
  SizingProblem prob = make_ngm_problem_base();
  prob.paper_sim_seconds = 2.4;  // paper: Spectre schematic simulation

  const spice::TechCard card = spice::TechCard::finfet16();
  const auto param_defs = prob.params;
  prob.backend = make_standard_backend(
      batch_evaluator(
          [param_defs](const ParamVector& idx) {
            return ngm_params_from_grid(param_defs, idx);
          },
          [card](const std::vector<NgmParams>& params,
                 const std::vector<eval::OpHint*>& hints) {
            return simulate_ngm_ota_batch(
                params, std::vector<spice::TechCard>(params.size(), card),
                {}, hints);
          },
          [](const NgmResult& r) {
            return SpecVector{r.gain, r.ugbw, r.phase_margin};
          }),
      "ngm_sim", options,
      problem_fingerprint(prob.name, prob.params, prob.specs));
  prob.validate();
  return prob;
}

std::size_t ngm_pex_corner_count() { return pex::standard_corners().size(); }

SizingProblem make_ngm_pex_problem(const ProblemOptions& options) {
  SizingProblem prob = make_ngm_problem_base();
  prob.name = "ngm_ota_pex";
  prob.description =
      "Negative-gm OTA through layout parasitics + PVT worst case (paper "
      "Section III-D / Table IV)";
  prob.paper_sim_seconds = 91.0;  // paper: BAG PEX simulation
  // Deployment enforces only the 60 degree minimum for phase margin.
  prob.specs[2].sample_lo = 60.0;
  prob.specs[2].sample_hi = 60.0;

  const spice::TechCard nominal = spice::TechCard::finfet16();
  std::vector<spice::TechCard> corner_cards;
  for (const pex::PvtCorner& corner : pex::standard_corners()) {
    corner_cards.push_back(pex::apply_corner(nominal, corner));
  }
  const std::size_t n_corners = corner_cards.size();
  const auto param_defs = prob.params;
  const pex::ParasiticModel parasitics = transfer_parasitics();

  // Every (point, corner) pair is a lane, point-major: lane p * C + c is
  // point p under corner c, and takes slot c of point p's warm-start hint
  // (FunctionBackend hands out C slots per point). All lanes share one
  // workspace pattern, since corners differ only in their card.
  eval::BatchEvalFn corner_lanes = batch_evaluator(
      [param_defs](const ParamVector& idx) {
        return ngm_params_from_grid(param_defs, idx);
      },
      [corner_cards, parasitics](const std::vector<NgmParams>& points,
                                 const std::vector<eval::OpHint*>& hints) {
        std::vector<NgmParams> lanes;
        std::vector<spice::TechCard> cards;
        for (const NgmParams& p : points) {
          lanes.insert(lanes.end(), corner_cards.size(), p);
          cards.insert(cards.end(), corner_cards.begin(), corner_cards.end());
        }
        NgmBuildOptions build;
        build.parasitics = &parasitics;
        return simulate_ngm_ota_batch(lanes, cards, build, hints);
      },
      [](const NgmResult& r) {
        return SpecVector{r.gain, r.ugbw, r.phase_margin};
      });
  prob.backend = make_standard_backend(
      [corner_lanes, spec_defs = prob.specs, n_corners](
          const std::vector<ParamVector>& points,
          const std::vector<eval::OpHint*>& hints) {
        return fold_corner_lanes(spec_defs, corner_lanes(points, hints),
                                 n_corners);
      },
      "ngm_pex_sim", options,
      problem_fingerprint(prob.name, prob.params, prob.specs), n_corners);
  prob.validate();
  return prob;
}

}  // namespace autockt::circuits
