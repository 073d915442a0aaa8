#include "circuits/two_stage_opamp.hpp"

#include <cmath>

#include "circuits/lanes.hpp"
#include "spice/units.hpp"

namespace autockt::circuits {

namespace {
constexpr double kLoadCap = 2e-12;        // F
constexpr double kBiasResistor = 20e3;    // Ohms
constexpr double kChannelLengthFactor = 2.0;
constexpr double kVcmFraction = 0.55;     // input common mode / vdd

spice::DcOptions two_stage_dc_options(const spice::Circuit& ckt,
                                      const spice::TechCard& card) {
  using namespace spice;
  const double vcm = kVcmFraction * card.vdd;
  DcOptions dc_opt;
  dc_opt.initial_node_v.assign(ckt.num_nodes(), 0.0);
  dc_opt.initial_node_v[ckt.node("vdd")] = card.vdd;
  dc_opt.initial_node_v[ckt.node("inp")] = vcm;
  dc_opt.initial_node_v[ckt.node("inn")] = vcm;
  dc_opt.initial_node_v[ckt.node("tail")] = 0.2 * card.vdd;
  dc_opt.initial_node_v[ckt.node("d1")] = 0.65 * card.vdd;
  dc_opt.initial_node_v[ckt.node("out1")] = 0.65 * card.vdd;
  dc_opt.initial_node_v[ckt.node("out")] = vcm;
  dc_opt.initial_node_v[ckt.node("bias")] = 0.4 * card.vdd;
  return dc_opt;
}

OpampResult assemble_two_stage_result(std::size_t,
                                      const LaneResult& lane) {
  const spice::AcMeasurements& acm = lane.ac;
  OpampResult result;
  result.gain = acm.dc_gain;
  result.ugbw_found = acm.ugbw_found;
  result.ugbw = acm.ugbw_found ? acm.ugbw : 0.0;
  result.phase_margin = acm.ugbw_found ? acm.phase_margin_deg : 0.0;
  result.bias_current = -lane.op.branch_i[0];  // vsupply is the first source
  return result;
}
}  // namespace

spice::Circuit build_two_stage(const TwoStageParams& params,
                               const spice::TechCard& card,
                               const OpampBuildOptions& options) {
  using namespace spice;
  Circuit ckt;
  const NodeId vdd = ckt.add_node("vdd");
  const NodeId inp = ckt.add_node("inp");
  const NodeId inn = ckt.add_node("inn");
  const NodeId tail = ckt.add_node("tail");
  const NodeId d1 = ckt.add_node("d1");      // mirror diode drain
  const NodeId out1 = ckt.add_node("out1");  // first-stage output
  const NodeId out = ckt.add_node("out");
  const NodeId bias = ckt.add_node("bias");

  const double vcm = kVcmFraction * card.vdd;
  ckt.add<VoltageSource>("vsupply", vdd, kGround,
                         Waveform::constant(card.vdd));
  // AC stimulus drives the M2 gate; the DC servo below feeds the M1 gate,
  // which is the inverting input with respect to `out` (signal path
  // inp -> d1 -> mirror -> out1 -> M6 -> out has odd inversion parity), so
  // the servo loop is genuinely negative feedback.
  ckt.add<VoltageSource>("vin", inn, kGround, Waveform::constant(vcm),
                         /*ac_mag=*/1.0);

  const double l = kChannelLengthFactor * card.l_min;
  ckt.add<Mosfet>("m1", d1, inp, tail, kGround, MosType::Nmos,
                  MosGeom{params.w12, l, 1}, card);
  ckt.add<Mosfet>("m2", out1, inn, tail, kGround, MosType::Nmos,
                  MosGeom{params.w12, l, 1}, card);
  ckt.add<Mosfet>("m3", d1, d1, vdd, vdd, MosType::Pmos,
                  MosGeom{params.w34, l, 1}, card);
  ckt.add<Mosfet>("m4", out1, d1, vdd, vdd, MosType::Pmos,
                  MosGeom{params.w34, l, 1}, card);
  ckt.add<Mosfet>("m5", tail, bias, kGround, kGround, MosType::Nmos,
                  MosGeom{params.w5, l, 1}, card);
  ckt.add<Mosfet>("m6", out, out1, vdd, vdd, MosType::Pmos,
                  MosGeom{params.w6, l, 1}, card);
  ckt.add<Mosfet>("m7", out, bias, kGround, kGround, MosType::Nmos,
                  MosGeom{params.w7, l, 1}, card);
  ckt.add<Mosfet>("m8", bias, bias, kGround, kGround, MosType::Nmos,
                  MosGeom{params.w8, l, 1}, card);

  ckt.add<Resistor>("rbias", vdd, bias, kBiasResistor);
  ckt.add<Capacitor>("cc", out1, out, params.cc);
  ckt.add<Capacitor>("cl", out, kGround, kLoadCap);

  // Ideal DC-bias servo (nullor): drives the M1 gate so that the output
  // sits at the common-mode level, then AC-grounds that gate so the AC
  // sweep sees the open-loop amplifier.
  ckt.add<BiasProbe>("servo", inp, out, vcm);

  if (options.parasitics != nullptr) {
    const pex::ParasiticModel& pm = *options.parasitics;
    auto key = [](const char* net) {
      return pex::ParasiticModel::net_key("two_stage", net);
    };
    ckt.add<Capacitor>("cpex_d1", d1, kGround,
                       pm.net_cap(params.w12 + 2.0 * params.w34, key("d1")));
    ckt.add<Capacitor>(
        "cpex_out1", out1, kGround,
        pm.net_cap(params.w12 + params.w34 + params.w6, key("out1")));
    ckt.add<Capacitor>("cpex_out", out, kGround,
                       pm.net_cap(params.w6 + params.w7, key("out")));
    ckt.add<Capacitor>("cpex_tail", tail, kGround,
                       pm.net_cap(2.0 * params.w12 + params.w5, key("tail")));
  }
  return ckt;
}

util::Expected<OpampResult> simulate_two_stage(
    const TwoStageParams& params, const spice::TechCard& card,
    const OpampBuildOptions& options) {
  return std::move(
      simulate_two_stage_batch({params}, card, options, {options.hint})[0]);
}

std::vector<util::Expected<OpampResult>> simulate_two_stage_batch(
    const std::vector<TwoStageParams>& params, const spice::TechCard& card,
    const OpampBuildOptions& options,
    const std::vector<eval::OpHint*>& hints) {
  using namespace spice;
  if (params.empty()) return {};
  std::vector<Circuit> circuits;
  circuits.reserve(params.size());
  std::vector<const Circuit*> ckts;
  std::vector<DcOptions> dc;
  for (const TwoStageParams& p : params) {
    ckts.push_back(&circuits.emplace_back(build_two_stage(p, card, options)));
    dc.push_back(two_stage_dc_options(circuits.back(), card));
  }
  // One workspace per (thread, topology): the stamp pattern and symbolic
  // factorization are computed once and reused by every grid point.
  SimWorkspace& ws = workspace_for(
      circuits.front(),
      options.parasitics != nullptr ? "two_stage_pex" : "two_stage");
  LanePlan plan;
  plan.ac.emplace();
  plan.ac->f_start = 1e2;
  plan.ac->f_stop = 1e11;
  plan.ac->points_per_decade = 10;
  plan.ac_probe = circuits.front().node("out");
  return run_lanes<OpampResult>(ckts, std::move(dc), hints, plan, ws,
                                assemble_two_stage_result);
}

TwoStageParams two_stage_params_from_grid(const std::vector<ParamDef>& defs,
                                          const ParamVector& idx) {
  TwoStageParams p;
  p.w12 = defs[0].value(idx[0]) * 1e-6;  // grids carry widths in um
  p.w34 = defs[1].value(idx[1]) * 1e-6;
  p.w5 = defs[2].value(idx[2]) * 1e-6;
  p.w6 = defs[3].value(idx[3]) * 1e-6;
  p.w7 = defs[4].value(idx[4]) * 1e-6;
  p.w8 = defs[5].value(idx[5]) * 1e-6;
  p.cc = defs[6].value(idx[6]) * 1e-12;
  return p;
}

}  // namespace autockt::circuits
