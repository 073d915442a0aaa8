#include "spice/mosfet.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "spice/units.hpp"

namespace autockt::spice {

namespace {

/// Numerically safe softplus: ln(1 + e^x).
double softplus(double x) {
  if (x > 30.0) return x;
  if (x < -30.0) return std::exp(x);
  return std::log1p(std::exp(x));
}

double sigmoid(double x) {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

}  // namespace

TechCard TechCard::ptm45() {
  TechCard c;
  c.name = "ptm45";
  c.vdd = 1.2;
  c.temp_k = 300.0;
  c.u_cox_n = 3.2e-4;
  c.u_cox_p = 1.4e-4;
  c.vth_n = 0.35;
  c.vth_p = 0.35;
  c.lambda_n = 0.90;
  c.lambda_p = 1.10;
  c.l_min = 45e-9;
  c.cox_area = 1.0e-2;
  c.cov_w = 3.0e-10;
  c.cj_w = 5.0e-10;
  c.subthreshold_n = 1.5;
  c.gamma_noise = 1.0;
  c.kf = 1.0e-26;
  c.quantized_width = false;
  return c;
}

TechCard TechCard::finfet16() {
  TechCard c;
  c.name = "finfet16";
  c.vdd = 0.8;
  c.temp_k = 300.0;
  c.u_cox_n = 6.0e-4;
  c.u_cox_p = 4.5e-4;
  c.vth_n = 0.30;
  c.vth_p = 0.30;
  c.lambda_n = 0.90;   // short-channel: low intrinsic gain, soft saturation
  c.lambda_p = 1.00;
  c.l_min = 16e-9;
  c.cox_area = 2.0e-2;
  c.cov_w = 4.0e-10;
  c.cj_w = 6.0e-10;
  c.subthreshold_n = 1.35;
  c.gamma_noise = 1.2;
  c.kf = 2.0e-26;
  c.quantized_width = true;
  c.fin_width = 1.0e-7;  // effective electrical width per fin (2*hfin + tfin)
  return c;
}

Mosfet::Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
               MosType type, MosGeom geom, const TechCard& card)
    : Device(std::move(name)),
      d_(d),
      g_(g),
      s_(s),
      b_(b),
      type_(type),
      geom_(geom) {
  const bool nmos = type_ == MosType::Nmos;
  u_cox_ = nmos ? card.u_cox_n : card.u_cox_p;
  vth_ = nmos ? card.vth_n : card.vth_p;
  const double lambda0 = nmos ? card.lambda_n : card.lambda_p;
  // Channel-length modulation weakens with longer channels.
  lambda_eff_ = lambda0 * card.l_min / std::max(geom_.length, card.l_min);
  nvt_ = card.subthreshold_n * thermal_voltage(card.temp_k);
  gamma_noise_ = card.gamma_noise;
  kf_ = card.kf;
  cox_area_ = card.cox_area;
  temp_k_ = card.temp_k;

  const double w_total = geom_.total_width();
  cgs_ = (2.0 / 3.0) * card.cox_area * w_total * geom_.length +
         card.cov_w * w_total;
  cgd_ = card.cov_w * w_total;
  cdb_ = card.cj_w * w_total;
  csb_ = card.cj_w * w_total;
}

Mosfet::Eval Mosfet::evaluate(const std::vector<double>& voltages) const {
  const double sign = type_ == MosType::Nmos ? 1.0 : -1.0;

  Eval e;
  // Drain/source swap keeps the polarity-corrected Vds non-negative; the
  // square-law channel is symmetric so this is exact, and it guarantees the
  // model (and its derivatives) stay continuous when nodes cross.
  const double vds_raw = sign * (voltages[d_] - voltages[s_]);
  if (vds_raw >= 0.0) {
    e.d_eff = d_;
    e.s_eff = s_;
  } else {
    e.d_eff = s_;
    e.s_eff = d_;
  }
  const double vds = sign * (voltages[e.d_eff] - voltages[e.s_eff]);
  const double vgs = sign * (voltages[g_] - voltages[e.s_eff]);

  const double vov = vgs - vth_;
  const double vov_eff = std::max(nvt_ * softplus(vov / nvt_), 1e-12);
  const double dvov_eff = sigmoid(vov / nvt_);

  const double u = vds / vov_eff;
  const double t = std::tanh(u);
  const double vds_eff = vov_eff * t;
  const double sech2 = 1.0 - t * t;
  const double dvdse_dvds = sech2;              // d(Vds_eff)/d(Vds)
  const double dvdse_dvsat = t - u * sech2;     // d(Vds_eff)/d(Vov_eff)

  const double beta = u_cox_ * geom_.total_width() / geom_.length;
  const double f = vov_eff * vds_eff - 0.5 * vds_eff * vds_eff;
  const double clm = 1.0 + lambda_eff_ * vds;

  const double id = beta * f * clm;  // magnitude (>= 0)

  const double df_dvov = vds_eff + (vov_eff - vds_eff) * dvdse_dvsat;
  const double df_dvds = (vov_eff - vds_eff) * dvdse_dvds;

  const double gm = beta * clm * df_dvov * dvov_eff;
  const double gds = beta * (clm * df_dvds + lambda_eff_ * f);

  // Injected current at d_eff is J = sign * id; the sign cancels in the
  // derivatives w.r.t. actual node voltages (chain rule through sign^2).
  e.j = sign * id;
  e.gm = std::max(gm, 0.0);
  e.gds = std::max(gds, 1e-15);
  e.id_mag = id;
  e.vov_eff = vov_eff;
  e.vds = vds;
  e.vgs = vgs;
  return e;
}

void Mosfet::stamp_real(RealStamp& ctx) const {
  const Eval e = evaluate(ctx.voltages);

  // Newton companion: current leaving e.d_eff is
  //   J(v) ~= J0 + gds*(vd - vd0) + gm*(vg - vg0) - (gm+gds)*(vs - vs0)
  ctx.jacobian(e.d_eff, e.d_eff, e.gds);
  ctx.jacobian(e.d_eff, g_, e.gm);
  ctx.jacobian(e.d_eff, e.s_eff, -(e.gm + e.gds));
  ctx.jacobian(e.s_eff, e.d_eff, -e.gds);
  ctx.jacobian(e.s_eff, g_, -e.gm);
  ctx.jacobian(e.s_eff, e.s_eff, e.gm + e.gds);

  const double ieq = e.j - e.gds * ctx.voltages[e.d_eff] -
                     e.gm * ctx.voltages[g_] +
                     (e.gm + e.gds) * ctx.voltages[e.s_eff];
  ctx.inject(e.d_eff, -ieq);
  ctx.inject(e.s_eff, ieq);
}

void Mosfet::stamp_complex(ComplexStamp& ctx) const {
  const Eval e = evaluate(ctx.op_voltages);

  ctx.transconductance(e.d_eff, e.d_eff, e.gds);
  ctx.transconductance(e.d_eff, g_, e.gm);
  ctx.transconductance(e.d_eff, e.s_eff, -(e.gm + e.gds));
  ctx.transconductance(e.s_eff, e.d_eff, -e.gds);
  ctx.transconductance(e.s_eff, g_, -e.gm);
  ctx.transconductance(e.s_eff, e.s_eff, e.gm + e.gds);

  // Geometry capacitances (physical, unswapped terminals).
  ctx.capacitance(g_, s_, cgs_);
  ctx.capacitance(g_, d_, cgd_);
  ctx.capacitance(d_, b_, cdb_);
  ctx.capacitance(s_, b_, csb_);
}

void Mosfet::declare_real_pattern(RealStamp& ctx) const {
  // The drain/source swap means the Jacobian footprint depends on the
  // candidate voltages; declare both orientations so the frozen pattern
  // covers every iterate. (The two orientations touch the same position
  // set whenever both terminals are off ground, but ground connections
  // drop different entries per orientation.)
  for (const auto& [de, se] : {std::pair{d_, s_}, std::pair{s_, d_}}) {
    ctx.jacobian(de, de, 0.0);
    ctx.jacobian(de, g_, 0.0);
    ctx.jacobian(de, se, 0.0);
    ctx.jacobian(se, de, 0.0);
    ctx.jacobian(se, g_, 0.0);
    ctx.jacobian(se, se, 0.0);
  }
}

void Mosfet::declare_complex_pattern(ComplexStamp& ctx) const {
  for (const auto& [de, se] : {std::pair{d_, s_}, std::pair{s_, d_}}) {
    ctx.transconductance(de, de, 0.0);
    ctx.transconductance(de, g_, 0.0);
    ctx.transconductance(de, se, 0.0);
    ctx.transconductance(se, de, 0.0);
    ctx.transconductance(se, g_, 0.0);
    ctx.transconductance(se, se, 0.0);
  }
  ctx.capacitance(g_, s_, 0.0);
  ctx.capacitance(g_, d_, 0.0);
  ctx.capacitance(d_, b_, 0.0);
  ctx.capacitance(s_, b_, 0.0);
}

void Mosfet::collect_caps(std::vector<CapElement>& out) const {
  out.push_back({g_, s_, cgs_});
  out.push_back({g_, d_, cgd_});
  out.push_back({d_, b_, cdb_});
  out.push_back({s_, b_, csb_});
}

void Mosfet::collect_noise(const std::vector<double>& op_voltages, double freq,
                           double temp_k,
                           std::vector<NoiseSource>& out) const {
  const Eval e = evaluate(op_voltages);
  const double thermal = 4.0 * kBoltzmann * temp_k * gamma_noise_ * e.gm;
  const double area = geom_.total_width() * geom_.length;
  const double flicker =
      kf_ * e.id_mag / (cox_area_ * area * std::max(freq, 1.0));
  out.push_back({e.d_eff, e.s_eff, thermal + flicker});
}

MosSmallSignal Mosfet::linearize(const std::vector<double>& voltages) const {
  const Eval e = evaluate(voltages);
  MosSmallSignal ss;
  ss.id = e.j;
  ss.gm = e.gm;
  ss.gds = e.gds;
  ss.vov_eff = e.vov_eff;
  if (e.vgs - vth_ < 0.0) {
    ss.region = MosRegion::Subthreshold;
  } else if (e.vds < e.vov_eff) {
    ss.region = MosRegion::Triode;
  } else {
    ss.region = MosRegion::Saturation;
  }
  return ss;
}

}  // namespace autockt::spice
