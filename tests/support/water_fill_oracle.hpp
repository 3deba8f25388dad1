// The water-fill as it was before it carried its sort order between
// calls: fresh (breakpoint, entry) pairs every call, sorted by std::sort.
// It is the reference the carried-order water-fill
// (opt::detail::water_fill) must match bit for bit.
#pragma once

#include "core/solver_core.hpp"

namespace blade::testsupport {

/// One Newton round's water-fill over `s` (x, weight, g and dg filled):
/// the same contract as opt::detail::water_fill, except that it sorts
/// fresh pairs into s.keyed whatever order it held, and leaves s.slope
/// untouched.
[[nodiscard]] Expected<opt::detail::WaterFill> water_fill_sorted_afresh(
    double lambda_total, opt::detail::NewtonState& s);

}  // namespace blade::testsupport
