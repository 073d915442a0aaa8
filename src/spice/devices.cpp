#include "spice/devices.hpp"

#include "spice/units.hpp"

namespace autockt::spice {

// ---------------------------------------------------------------- Resistor

Resistor::Resistor(std::string name, NodeId n1, NodeId n2, double ohms)
    : Device(std::move(name)), n1_(n1), n2_(n2), ohms_(ohms) {}

void Resistor::stamp_real(RealStamp& ctx) const {
  ctx.conductance(n1_, n2_, 1.0 / ohms_);
}

void Resistor::stamp_complex(ComplexStamp& ctx) const {
  ctx.conductance(n1_, n2_, 1.0 / ohms_);
}

void Resistor::collect_noise(const std::vector<double>& /*op_voltages*/,
                             double /*freq*/, double temp_k,
                             std::vector<NoiseSource>& out) const {
  // Johnson-Nyquist current noise: 4kT/R, white.
  out.push_back({n1_, n2_, 4.0 * kBoltzmann * temp_k / ohms_});
}

// --------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string name, NodeId n1, NodeId n2, double farads)
    : Device(std::move(name)), n1_(n1), n2_(n2), farads_(farads) {}

void Capacitor::stamp_real(RealStamp& /*ctx*/) const {
  // Open at DC. Transient companion stamps are handled by the engine via
  // collect_caps().
}

void Capacitor::stamp_complex(ComplexStamp& ctx) const {
  ctx.capacitance(n1_, n2_, farads_);
}

void Capacitor::collect_caps(std::vector<CapElement>& out) const {
  out.push_back({n1_, n2_, farads_});
}

// ----------------------------------------------------------- VoltageSource

VoltageSource::VoltageSource(std::string name, NodeId plus, NodeId minus,
                             Waveform wave, double ac_mag)
    : Device(std::move(name)),
      plus_(plus),
      minus_(minus),
      wave_(wave),
      ac_mag_(ac_mag) {}

void VoltageSource::stamp_real(RealStamp& ctx) const {
  const std::size_t br = ctx.row_of_branch(first_branch());
  if (plus_ != kGround) {
    ctx.add_a(ctx.row_of_node(plus_), br, 1.0);
    ctx.add_a(br, ctx.row_of_node(plus_), 1.0);
  }
  if (minus_ != kGround) {
    ctx.add_a(ctx.row_of_node(minus_), br, -1.0);
    ctx.add_a(br, ctx.row_of_node(minus_), -1.0);
  }
  ctx.add_rhs(br, ctx.source_scale *
                      (ctx.transient ? wave_.value(ctx.time) : wave_.dc()));
}

void VoltageSource::stamp_complex(ComplexStamp& ctx) const {
  const std::size_t br = ctx.row_of_branch(first_branch());
  if (plus_ != kGround) {
    ctx.add_g(ctx.row_of_node(plus_), br, 1.0);
    ctx.add_g(br, ctx.row_of_node(plus_), 1.0);
  }
  if (minus_ != kGround) {
    ctx.add_g(ctx.row_of_node(minus_), br, -1.0);
    ctx.add_g(br, ctx.row_of_node(minus_), -1.0);
  }
  ctx.add_rhs(br, std::complex<double>(ac_mag_, 0.0));
}

// ----------------------------------------------------------- CurrentSource

CurrentSource::CurrentSource(std::string name, NodeId plus, NodeId minus,
                             Waveform wave, double ac_mag)
    : Device(std::move(name)),
      plus_(plus),
      minus_(minus),
      wave_(wave),
      ac_mag_(ac_mag) {}

void CurrentSource::stamp_real(RealStamp& ctx) const {
  const double i =
      ctx.source_scale * (ctx.transient ? wave_.value(ctx.time) : wave_.dc());
  ctx.inject(plus_, -i);
  ctx.inject(minus_, i);
}

void CurrentSource::stamp_complex(ComplexStamp& ctx) const {
  ctx.inject(plus_, std::complex<double>(-ac_mag_, 0.0));
  ctx.inject(minus_, std::complex<double>(ac_mag_, 0.0));
}

// --------------------------------------------------------------- BiasProbe

BiasProbe::BiasProbe(std::string name, NodeId bias_node, NodeId sense_node,
                     double target_v)
    : Device(std::move(name)),
      bias_node_(bias_node),
      sense_node_(sense_node),
      target_v_(target_v) {}

void BiasProbe::stamp_real(RealStamp& ctx) const {
  const std::size_t br = ctx.row_of_branch(first_branch());
  // Servo current enters the bias node...
  if (bias_node_ != kGround) ctx.add_a(ctx.row_of_node(bias_node_), br, 1.0);
  // ...and the constraint row demands the sensed node equal the target
  // (scaled along with the independent sources during source stepping).
  if (sense_node_ != kGround) ctx.add_a(br, ctx.row_of_node(sense_node_), 1.0);
  ctx.add_rhs(br, ctx.source_scale * target_v_);
}

void BiasProbe::stamp_complex(ComplexStamp& ctx) const {
  const std::size_t br = ctx.row_of_branch(first_branch());
  // Open-loop small-signal behaviour: hold the bias node at AC ground.
  if (bias_node_ != kGround) {
    ctx.add_g(ctx.row_of_node(bias_node_), br, 1.0);
    ctx.add_g(br, ctx.row_of_node(bias_node_), 1.0);
  }
}

// -------------------------------------------------------------------- Vccs

Vccs::Vccs(std::string name, NodeId out_p, NodeId out_m, NodeId in_p,
           NodeId in_m, double gm)
    : Device(std::move(name)),
      out_p_(out_p),
      out_m_(out_m),
      in_p_(in_p),
      in_m_(in_m),
      gm_(gm) {}

void Vccs::stamp_real(RealStamp& ctx) const {
  // Current gm*v(in) leaves out_p and enters out_m.
  ctx.jacobian(out_p_, in_p_, gm_);
  ctx.jacobian(out_p_, in_m_, -gm_);
  ctx.jacobian(out_m_, in_p_, -gm_);
  ctx.jacobian(out_m_, in_m_, gm_);
}

void Vccs::stamp_complex(ComplexStamp& ctx) const {
  ctx.transconductance(out_p_, in_p_, gm_);
  ctx.transconductance(out_p_, in_m_, -gm_);
  ctx.transconductance(out_m_, in_p_, -gm_);
  ctx.transconductance(out_m_, in_m_, gm_);
}

}  // namespace autockt::spice
