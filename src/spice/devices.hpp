#pragma once
// Linear and source devices: resistor, capacitor, independent voltage and
// current sources, and a voltage-controlled current source.

#include <complex>
#include <vector>

#include "spice/device.hpp"
#include "spice/waveform.hpp"

namespace autockt::spice {

class Resistor : public Device {
 public:
  Resistor(std::string name, NodeId n1, NodeId n2, double ohms);

  double resistance() const { return ohms_; }

  void stamp_real(RealStamp& ctx) const override;
  void stamp_complex(ComplexStamp& ctx) const override;
  void collect_noise(const std::vector<double>& op_voltages, double freq,
                     double temp_k,
                     std::vector<NoiseSource>& out) const override;
  DeviceTopology topology() const override {
    return {DeviceTopology::Kind::Resistor, {n1_, n2_}, {{n1_, n2_}}};
  }

 private:
  NodeId n1_, n2_;
  double ohms_;
};

class Capacitor : public Device {
 public:
  Capacitor(std::string name, NodeId n1, NodeId n2, double farads);

  double capacitance() const { return farads_; }

  // Open circuit at DC; the transient engine adds the companion stamp.
  void stamp_real(RealStamp& ctx) const override;
  void stamp_complex(ComplexStamp& ctx) const override;
  void collect_caps(std::vector<CapElement>& out) const override;
  DeviceTopology topology() const override {
    return {DeviceTopology::Kind::Capacitor, {n1_, n2_}, {}};
  }

 private:
  NodeId n1_, n2_;
  double farads_;
};

/// Independent voltage source (adds one branch-current unknown). The branch
/// current is defined as flowing from `plus` through the source to `minus`;
/// the current a supply delivers into the circuit is therefore -i_branch.
class VoltageSource : public Device {
 public:
  VoltageSource(std::string name, NodeId plus, NodeId minus, Waveform wave,
                double ac_mag = 0.0);

  std::size_t branch_count() const override { return 1; }

  void stamp_real(RealStamp& ctx) const override;
  void stamp_complex(ComplexStamp& ctx) const override;
  bool stamps_constant_between(double t_a, double t_b) const override {
    return wave_.constant_between(t_a, t_b);
  }

  double dc_value() const { return wave_.dc(); }

  DeviceTopology topology() const override {
    return {DeviceTopology::Kind::VoltageSource,
            {plus_, minus_},
            {{plus_, minus_}}};
  }

 private:
  NodeId plus_, minus_;
  Waveform wave_;
  double ac_mag_;
};

/// Independent current source; positive current flows from `plus` through
/// the source to `minus` (i.e. is injected into `minus`).
class CurrentSource : public Device {
 public:
  CurrentSource(std::string name, NodeId plus, NodeId minus, Waveform wave,
                double ac_mag = 0.0);

  void stamp_real(RealStamp& ctx) const override;
  void stamp_complex(ComplexStamp& ctx) const override;
  bool stamps_constant_between(double t_a, double t_b) const override {
    return wave_.constant_between(t_a, t_b);
  }

  DeviceTopology topology() const override {
    return {DeviceTopology::Kind::CurrentSource, {plus_, minus_}, {}};
  }

 private:
  NodeId plus_, minus_;
  Waveform wave_;
  double ac_mag_;
};

/// Ideal DC bias servo (nullor pattern): injects whatever current into
/// `bias_node` is needed so that `sense_node` sits exactly at `target_v` in
/// the DC solution — the algebraic equivalent of the integrator servo loop
/// analog designers wrap around an op-amp to bias it open-loop. In AC/noise
/// analyses the element instead pins `bias_node` to AC ground, leaving the
/// amplifier open-loop. Adds one branch unknown (the servo current, which is
/// zero at any valid DC solution because MOS gates draw no current).
class BiasProbe : public Device {
 public:
  BiasProbe(std::string name, NodeId bias_node, NodeId sense_node,
            double target_v);

  std::size_t branch_count() const override { return 1; }

  void stamp_real(RealStamp& ctx) const override;
  void stamp_complex(ComplexStamp& ctx) const override;

  // The nullor determines the bias-node voltage through the sense-node
  // constraint, so for DC-path purposes the two ports are connected.
  DeviceTopology topology() const override {
    return {DeviceTopology::Kind::BiasProbe,
            {bias_node_, sense_node_},
            {{bias_node_, sense_node_}}};
  }

 private:
  NodeId bias_node_, sense_node_;
  double target_v_;
};

/// Voltage-controlled current source: i(out_p -> out_m) = gm * v(in_p, in_m).
class Vccs : public Device {
 public:
  Vccs(std::string name, NodeId out_p, NodeId out_m, NodeId in_p, NodeId in_m,
       double gm);

  void stamp_real(RealStamp& ctx) const override;
  void stamp_complex(ComplexStamp& ctx) const override;

  // Neither port conducts at DC: the output is an ideal current source and
  // the input draws no current, so no dc_paths.
  DeviceTopology topology() const override {
    return {DeviceTopology::Kind::Vccs, {out_p_, out_m_, in_p_, in_m_}, {}};
  }

 private:
  NodeId out_p_, out_m_, in_p_, in_m_;
  double gm_;
};

}  // namespace autockt::spice
