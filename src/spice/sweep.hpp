#pragma once
// Internals shared by the AC and noise engines: the check of their sweep
// options and the log-spaced sweep grid (one definition, so the two
// analyses can never desynchronize).

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "util/expected.hpp"
#include "util/fmt.hpp"

namespace autockt::spice::detail {

/// The error `analysis` (say "AC sweep") returns, with `code`, when its
/// sweep options (AcOptions or NoiseOptions) are unusable: the deck
/// parser's rules for .ac and .noise cards (f_start finite and > 0, f_stop
/// finite and > f_start, points per decade >= 1), plus a point count that
/// fits in an int. sweep_points() needs all of them.
template <class Options>
std::optional<util::Error> sweep_error(const Options& options,
                                       const std::string& analysis,
                                       int code) {
  const double f_start = options.f_start;
  const double f_stop = options.f_stop;
  const int per_decade = options.points_per_decade;
  const auto fail = [&](const std::string& why) {
    return util::Error{analysis + ": " + why, code};
  };
  if (!(std::isfinite(f_start) && f_start > 0.0)) {
    return fail("f_start " + util::format_g17(f_start) +
                " must be finite and > 0");
  }
  if (!(std::isfinite(f_stop) && f_stop > f_start)) {
    return fail("f_stop " + util::format_g17(f_stop) +
                " must be finite and > f_start");
  }
  if (per_decade < 1) {
    return fail("points per decade " + std::to_string(per_decade) +
                " must be a whole number >= 1");
  }
  // f_stop / f_start may overflow to inf, which fails here too.
  const double steps =
      std::ceil(std::log10(f_stop / f_start) * static_cast<double>(per_decade));
  if (!(steps < static_cast<double>(std::numeric_limits<int>::max()))) {
    return fail("the sweep from " + util::format_g17(f_start) + " to " +
                util::format_g17(f_stop) + " Hz at " +
                std::to_string(per_decade) +
                " points per decade has more points than an int holds");
  }
  return std::nullopt;
}

/// Number of points of a log-spaced sweep at `per_decade` resolution. The
/// options must pass sweep_error().
inline int sweep_points(double f_start, double f_stop, int per_decade) {
  const double decades = std::log10(f_stop / f_start);
  return std::max(2, static_cast<int>(std::ceil(decades * per_decade)) + 1);
}

/// Frequency of point `i` in a `total`-point log-spaced sweep.
inline double sweep_freq(double f_start, double f_stop, int i, int total) {
  const double decades = std::log10(f_stop / f_start);
  const double frac = static_cast<double>(i) / static_cast<double>(total - 1);
  return f_start * std::pow(10.0, frac * decades);
}

}  // namespace autockt::spice::detail
