// Checked-assertion macros used throughout the library.
//
// DTM_CHECK fires in every build type: model invariants (schedule validity,
// coloring validity, cover properties) must hold in release benchmarks too,
// because a silently-invalid schedule would fabricate results. Its message
// names the expression and the source location, for whoever debugs the
// model. DTM_REQUIRE checks preconditions and external input (flags, specs,
// files), whose message is all a user should read.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace dtm {

/// Thrown when a library invariant or a precondition is violated.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void check_fail(const char* expr, const char* file,
                                    int line, const std::string& msg) {
  std::ostringstream os;
  os << "DTM_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

[[noreturn]] inline void require_fail(const char* expr,
                                      const std::string& msg) {
  throw CheckError(msg.empty() ? "requirement failed: " + std::string(expr)
                               : msg);
}

}  // namespace detail
}  // namespace dtm

/// Always-on invariant check. `msg` is streamed, e.g.
///   DTM_CHECK(a < b, "a=" << a << " b=" << b);
#define DTM_CHECK(cond, ...)                                             \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::ostringstream dtm_check_os_;                                  \
      dtm_check_os_ << "" __VA_ARGS__;                                   \
      ::dtm::detail::check_fail(#cond, __FILE__, __LINE__,               \
                                dtm_check_os_.str());                    \
    }                                                                    \
  } while (0)

/// Cheap precondition check on public API boundaries and external input.
/// Throws CheckError whose text is the streamed message alone, or
/// "requirement failed: <cond>" without one: no source location.
#define DTM_REQUIRE(cond, ...)                                           \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::ostringstream dtm_require_os_;                                \
      dtm_require_os_ << "" __VA_ARGS__;                                 \
      ::dtm::detail::require_fail(#cond, dtm_require_os_.str());         \
    }                                                                    \
  } while (0)
