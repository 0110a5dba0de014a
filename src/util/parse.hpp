// Whole-string number parsing for external input: CLI flag values and spec
// parameters. "12abc", "", " 3" and out-of-range values are CheckErrors,
// never a silently truncated number or an uncaught std::invalid_argument.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>

#include "util/check.hpp"

namespace dtm {

/// All of `text` as a T (an integer or floating-point type); otherwise a
/// CheckError reading "<what>: '<text>'".
template <typename T>
[[nodiscard]] T parse_number(std::string_view text, const std::string& what) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || stop != end)
    throw CheckError(what + ": '" + std::string(text) + "'");
  return v;
}

}  // namespace dtm
