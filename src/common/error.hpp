// error.hpp — exception types and checked-condition helpers shared by every
// tealeaf-portability library.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

namespace tl {

/// Base exception for all library errors.  Carries a formatted message that
/// already includes the throwing site's context string.
class Error : public std::runtime_error {
public:
  explicit Error(std::string what) : std::runtime_error(std::move(what)) {}
};

/// Raised when user-supplied configuration (tea.in, CLI) is malformed.
class ConfigError : public Error {
public:
  using Error::Error;
};

/// Raised on simulated-device misuse (bad copies, exhausted device memory).
class DeviceError : public Error {
public:
  using Error::Error;
};

namespace detail {
[[noreturn]] inline void fail(const char* file, int line, const std::string& msg) {
  throw Error(std::string(file) + ":" + std::to_string(line) + ": " + msg);
}
}  // namespace detail

}  // namespace tl

/// Check a runtime condition; throws tl::Error with file/line context.
#define TL_REQUIRE(cond, msg)                                     \
  do {                                                            \
    if (!(cond)) ::tl::detail::fail(__FILE__, __LINE__, (msg));   \
  } while (0)
