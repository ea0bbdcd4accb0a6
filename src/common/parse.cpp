#include "common/parse.h"

#include <charconv>
#include <string>

namespace xfa {

Result<std::uint64_t> parse_u64(std::string_view text) {
  // from_chars on an unsigned type already rejects '-', leading whitespace
  // and '+'; only full consumption and range remain to check.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return Status{StatusCode::kInvalidArgument,
                  "malformed integer value '" + std::string(text) + "'"};
  }
  return value;
}

}  // namespace xfa
