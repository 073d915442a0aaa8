#pragma once
// Shared helpers for the test suite. The cheap synthetic sizing problem
// lives in the library now (circuits/synthetic.hpp) so the CI smoke benches
// can drive the same problem; this header keeps the historical
// test_support:: spelling for the tests.

#include "circuits/sizing_problem.hpp"
#include "circuits/synthetic.hpp"
#include "pex/parasitics.hpp"

namespace autockt::test_support {

using circuits::make_synthetic_problem;

/// Mirrors the parasitic model the PEX factory builds
/// (transfer_parasitics in circuits/problems.cpp), for references that
/// simulate the PEX flow corner by corner.
inline pex::ParasiticModel pex_parasitics() {
  pex::ParasiticModel pm;
  pm.cap_fixed = 15e-15;
  pm.cap_per_width = 7.0e-9;
  pm.variation = 0.3;
  pm.salt = 0xba6;
  return pm;
}

}  // namespace autockt::test_support
