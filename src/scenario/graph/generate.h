// Seeded scenario generator: draws structurally valid random scenario files
// (.scn text) for fuzz-style coverage of the parser/lowering/builder path.
// Same Rng state => same text, so failures reproduce from the seed alone.
#pragma once

#include <string>

#include "sim/rng.h"

namespace xfa {

/// A random valid scenario file: small world (fast to lower and simulate),
/// one routing + one transport element, optional monitor/faults, 0-3
/// attacks drawn across every registered attack element with randomized
/// parameters. The text always parses (parse_scenario_text) and lowers
/// (lower_spec).
std::string random_scenario_text(Rng& rng);

}  // namespace xfa
