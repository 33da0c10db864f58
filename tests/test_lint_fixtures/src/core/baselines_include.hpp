#pragma once
// Seeded violation: library code reaching into the comparator directory.
// The quoted path is blanked by the comment/string stripper, so the rule
// must match the raw text.

#include <cstdint>
#include "baselines/cycle_follow.hpp"  // EXPECT-LINT: baselines-include
#include "core/cycles.hpp"

// A commented-out include is not an include:
// #include "baselines/tiled_core.hpp"

namespace inplace::detail {

inline std::uint64_t fixture_baselines_include() { return 0; }

}  // namespace inplace::detail
