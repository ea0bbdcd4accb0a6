// Strict unsigned integer parsing, shared by every text-to-integer boundary
// in the tree: the XFA_* environment snapshot (common/env.h), the xfa_bench
// numeric flags, and .scn element parameters.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/status.h"

namespace xfa {

/// Parses a non-empty run of ASCII digits that fits in 64 bits. A sign,
/// whitespace, any other character or an out-of-range value is
/// kInvalidArgument ("malformed integer value '<text>'").
Result<std::uint64_t> parse_u64(std::string_view text);

}  // namespace xfa
