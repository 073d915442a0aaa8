#include "circuits/tia.hpp"

#include <algorithm>
#include <cmath>

#include "circuits/lanes.hpp"
#include "spice/transient.hpp"
#include "spice/units.hpp"

namespace autockt::circuits {

namespace {
constexpr double kPhotodiodeCap = 50e-15;  // F
constexpr double kLoadCap = 15e-15;        // F
constexpr double kStepCurrent = 5e-6;      // A input step for settling
constexpr double kChannelLengthFactor = 2.0;  // drawn L = 2 * l_min
// Settling reported when the transient window ends before the output
// demonstrably settles. Equal to the maximum window (and the spec's fail
// value), so a still-ringing design can never out-score one that settled.
constexpr double kUnsettledPenalty = 3e-8;  // s
// Top of the AC sweep; also the cutoff reported when no -3 dB point is
// found inside it.
constexpr double kAcStop = 1e11;  // Hz

spice::DcOptions tia_dc_options(const spice::Circuit& ckt,
                                const spice::TechCard& card) {
  spice::DcOptions dc_opt;
  dc_opt.initial_node_v.assign(ckt.num_nodes(), 0.0);
  dc_opt.initial_node_v[ckt.node("vdd")] = card.vdd;
  dc_opt.initial_node_v[ckt.node("in")] = card.vdd / 2.0;
  dc_opt.initial_node_v[ckt.node("out")] = card.vdd / 2.0;
  return dc_opt;
}

/// Transient step-response settling measurement around the converged op
/// point; window scaled from the lane's own small-signal bandwidth (which
/// is why this stage is a per-lane tail of the pipeline).
util::Expected<double> tia_settling_time(const TiaParams& params,
                                         const spice::TechCard& card,
                                         const TiaBuildOptions& options,
                                         spice::SimWorkspace* ws,
                                         const spice::OpPoint& op,
                                         double cutoff_freq) {
  using namespace spice;
  // Window scaled from the small-signal bandwidth so slow and fast designs
  // are both resolved with ~0.25% time granularity.
  const double f_bw = std::clamp(cutoff_freq, 1e7, 1e11);
  const double t_window = std::clamp(10.0 / f_bw, 2e-10, 3e-8);
  const double t_edge = 0.1 * t_window;

  // Same netlist rebuilt with the stepped input source (devices are
  // immutable, so the transient stimulus needs its own build). Because it
  // is the same build function, the structure — and hence the workspace's
  // frozen pattern — matches by construction.
  const Waveform step_wave =
      Waveform::step(0.0, kStepCurrent, t_edge, t_window / 2000.0);
  TiaBuildOptions step_options = options;
  step_options.input_stimulus = &step_wave;
  Circuit step_ckt = build_tia(params, card, step_options);

  TranOptions tr_opt;
  tr_opt.workspace = ws;  // step_ckt shares the topology (and pattern)
  tr_opt.t_stop = t_window;
  tr_opt.dt = t_window / 400.0;
  auto tran = transient(step_ckt, op, {step_ckt.node("out")}, tr_opt);
  if (!tran.ok()) return tran.error();
  const SettlingResult settle =
      measure_settling(tran->time, tran->waveforms[0], 0.02);
  if (settle.settled) {
    return std::max(settle.time - t_edge, tr_opt.dt);
  }
  // The output was still moving at the window end: the measured instant is
  // only a lower bound. Report the penalty instead of crediting the design
  // with a (possibly tiny) truncated window length.
  return kUnsettledPenalty;
}
}  // namespace

spice::Circuit build_tia(const TiaParams& params, const spice::TechCard& card,
                         const TiaBuildOptions& options) {
  using namespace spice;
  Circuit ckt;
  const NodeId vdd = ckt.add_node("vdd");
  const NodeId in = ckt.add_node("in");
  const NodeId out = ckt.add_node("out");

  ckt.add<VoltageSource>("vsupply", vdd, kGround,
                         Waveform::constant(card.vdd));

  // Photodiode: signal current injected into `in` plus junction capacitance.
  // The default stimulus is DC 0 with unit AC magnitude; the transient
  // settling run passes a step waveform whose edge fires late enough for
  // the window to capture the pre-edge baseline.
  ckt.add<CurrentSource>("iin", kGround, in,
                         options.input_stimulus != nullptr
                             ? *options.input_stimulus
                             : Waveform::constant(0.0),
                         /*ac_mag=*/1.0);
  ckt.add<Capacitor>("cpd", in, kGround, kPhotodiodeCap);

  const double l = kChannelLengthFactor * card.l_min;
  ckt.add<Mosfet>("mn", out, in, kGround, kGround, MosType::Nmos,
                  MosGeom{params.wn, l, params.mn}, card);
  ckt.add<Mosfet>("mp", out, in, vdd, vdd, MosType::Pmos,
                  MosGeom{params.wp, l, params.mp}, card);

  ckt.add<Resistor>("rf", in, out, params.feedback_resistance());
  ckt.add<Capacitor>("cl", out, kGround, kLoadCap);

  if (options.parasitics != nullptr) {
    const pex::ParasiticModel& pm = *options.parasitics;
    const double w_in = params.wn * params.mn + params.wp * params.mp;
    ckt.add<Capacitor>("cpex_in", in, kGround,
                       pm.net_cap(w_in, pex::ParasiticModel::net_key(
                                              "tia", "in")));
    ckt.add<Capacitor>("cpex_out", out, kGround,
                       pm.net_cap(w_in, pex::ParasiticModel::net_key(
                                              "tia", "out")));
  }
  return ckt;
}

util::Expected<TiaResult> simulate_tia(const TiaParams& params,
                                       const spice::TechCard& card,
                                       const TiaBuildOptions& options) {
  return std::move(
      simulate_tia_batch({params}, card, options, {options.hint})[0]);
}

std::vector<util::Expected<TiaResult>> simulate_tia_batch(
    const std::vector<TiaParams>& params, const spice::TechCard& card,
    const TiaBuildOptions& options, const std::vector<eval::OpHint*>& hints) {
  using namespace spice;
  if (params.empty()) return {};
  std::vector<Circuit> circuits;
  circuits.reserve(params.size());
  std::vector<const Circuit*> ckts;
  std::vector<DcOptions> dc;
  for (const TiaParams& p : params) {
    ckts.push_back(&circuits.emplace_back(build_tia(p, card, options)));
    dc.push_back(tia_dc_options(circuits.back(), card));
  }
  // One workspace per (thread, topology), shared by the DC solve, the AC
  // and noise sweeps, and the transient run (whose step-stimulus rebuild
  // has the identical structure).
  SimWorkspace& ws = workspace_for(
      circuits.front(), options.parasitics != nullptr ? "tia_pex" : "tia");
  const NodeId out = circuits.front().node("out");
  LanePlan plan;
  plan.ac.emplace();  // transimpedance magnitude and cutoff
  plan.ac->f_start = 1e5;
  plan.ac->f_stop = kAcStop;
  plan.ac->points_per_decade = 10;
  plan.ac_probe = out;
  plan.noise.emplace();  // output-referred, then referred to the input
  plan.noise->f_start = 1e3;
  plan.noise->f_stop = 1e10;
  plan.noise->points_per_decade = 4;
  plan.noise_probe = out;
  return run_lanes<TiaResult>(
      ckts, std::move(dc), hints, plan, ws,
      [&](std::size_t l,
          const LaneResult& lane) -> util::Expected<TiaResult> {
        TiaResult result;
        result.cutoff_freq = lane.ac.f3db_found ? lane.ac.f3db : kAcStop;
        // Ohms (1 A AC stimulus).
        const double z_dc = std::max(lane.ac.dc_gain, 1.0);
        // Input-referred current noise times the feedback resistance gives
        // the paper's Vrms-equivalent input noise figure.
        result.input_noise =
            lane.noise_vrms * params[l].feedback_resistance() / z_dc;
        auto settling = tia_settling_time(params[l], card, options, &ws,
                                          lane.op, result.cutoff_freq);
        if (!settling.ok()) return settling.error();
        result.settling_time = *settling;
        result.supply_current = -lane.op.branch_i[0];
        return result;
      });
}

TiaParams tia_params_from_grid(const std::vector<ParamDef>& defs,
                               const ParamVector& idx) {
  TiaParams p;
  p.wn = defs[0].value(idx[0]) * 1e-6;
  p.mn = static_cast<int>(defs[1].value(idx[1]));
  p.wp = defs[2].value(idx[2]) * 1e-6;
  p.mp = static_cast<int>(defs[3].value(idx[3]));
  p.n_series = static_cast<int>(defs[4].value(idx[4]));
  p.n_parallel = static_cast<int>(defs[5].value(idx[5]));
  return p;
}

}  // namespace autockt::circuits
