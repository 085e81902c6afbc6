#pragma once
/// \file error.hpp
/// Precondition / invariant checking. Following the C++ Core Guidelines
/// (I.6, E.12) we validate public-API preconditions with exceptions that
/// carry a precise message, and keep a cheap assert for internal invariants.
///
/// A precondition message is shown to users (a CLI prints it after
/// `error:`), so it names the failed expression and the message but not the
/// source location, and an expression that is literally `false` (an
/// unconditional rejection) is left out. Invariant messages keep the
/// expression and file:line: they report library bugs.

#include <sstream>
#include <stdexcept>
#include <string>

namespace abftc::common {

/// Thrown when a caller violates a documented precondition.
class precondition_error : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant is broken (a library bug or a
/// numerically impossible regime, e.g. a diverging fixed point).
class invariant_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
[[noreturn]] inline void throw_precondition(const std::string& expr,
                                            const std::string& msg) {
  const bool unconditional = expr == "false";
  std::string what = "precondition failed";
  if (!unconditional) what += ": " + expr;
  if (!msg.empty()) what += (unconditional ? ": " : " — ") + msg;
  throw precondition_error(what);
}
[[noreturn]] inline void throw_invariant(const char* expr, const char* file,
                                         int line, const std::string& msg) {
  std::ostringstream os;
  os << "invariant failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw invariant_error(os.str());
}
}  // namespace detail

}  // namespace abftc::common

/// Validate a public-API precondition; throws abftc::common::precondition_error.
#define ABFTC_REQUIRE(expr, msg)                                             \
  do {                                                                       \
    if (!(expr))                                                             \
      ::abftc::common::detail::throw_precondition(#expr, (msg));            \
  } while (false)

/// Validate an internal invariant; throws abftc::common::invariant_error.
#define ABFTC_CHECK(expr, msg)                                            \
  do {                                                                    \
    if (!(expr))                                                          \
      ::abftc::common::detail::throw_invariant(#expr, __FILE__, __LINE__, \
                                               (msg));                    \
  } while (false)
