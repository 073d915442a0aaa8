#pragma once
// Time-domain source waveforms for transient analysis. Steps use a short
// linear ramp instead of an ideal discontinuity so Newton iterations at the
// step edge stay well-conditioned.

#include <algorithm>

namespace autockt::spice {

struct Waveform {
  enum class Kind { Constant, Step, Pulse };

  Kind kind = Kind::Constant;
  double base = 0.0;    // value before t0 (and DC value)
  double level = 0.0;   // value after the edge
  double t0 = 0.0;      // edge start time
  double t_rise = 1e-12;  // linear ramp duration
  double t_width = 0.0;   // pulse width (Pulse only)

  static Waveform constant(double value) {
    Waveform w;
    w.kind = Kind::Constant;
    w.base = value;
    return w;
  }

  static Waveform step(double from, double to, double at, double rise = 1e-12) {
    Waveform w;
    w.kind = Kind::Step;
    w.base = from;
    w.level = to;
    w.t0 = at;
    w.t_rise = rise;
    return w;
  }

  static Waveform pulse(double from, double to, double at, double width,
                        double rise = 1e-12) {
    Waveform w = step(from, to, at, rise);
    w.kind = Kind::Pulse;
    w.t_width = width;
    return w;
  }

  /// Value at time `t`; DC analyses use value(0) semantics via dc().
  double value(double t) const {
    switch (kind) {
      case Kind::Constant:
        return base;
      case Kind::Step:
        return base + (level - base) * edge(t, t0);
      case Kind::Pulse:
        return base + (level - base) *
                          (edge(t, t0) - edge(t, t0 + t_width));
    }
    return base;
  }

  /// True when value(t) is the same for every t in [t_a, t_b] (t_a <= t_b).
  /// Each edge ramp clamp((t - start) / t_rise, 0, 1) is monotone in t, in
  /// floating point too (rounding is monotone), so a ramp that is equal at
  /// both ends is flat in between. A NaN ramp compares unequal.
  bool constant_between(double t_a, double t_b) const {
    switch (kind) {
      case Kind::Constant:
        return true;
      case Kind::Step:
        return edge(t_a, t0) == edge(t_b, t0);
      case Kind::Pulse:
        return edge(t_a, t0) == edge(t_b, t0) &&
               edge(t_a, t0 + t_width) == edge(t_b, t0 + t_width);
    }
    return false;
  }

  /// Operating-point value (time-zero; steps are at their base level).
  double dc() const { return base; }

 private:
  /// The linear ramp of an edge that starts at `start`: 0 before, 1 after.
  double edge(double t, double start) const {
    return std::clamp((t - start) / t_rise, 0.0, 1.0);
  }
};

}  // namespace autockt::spice
