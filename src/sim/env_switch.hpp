#pragma once

// Strict parsing of the oracle switches read from the environment
// (VHADOOP_FLUID_REFERENCE, VHADOOP_FLUID_VERIFY_EVERY,
// VHADOOP_RUNNER_REFERENCE): a bad setting throws instead of silently
// picking a mode. `value` is what getenv returned for `name` (nullptr when
// the variable is unset); every error message names the variable.

#include <charconv>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace vhadoop::sim {

/// On/off switch: unset, empty or "0" is off, "1" is on.
inline bool parse_env_switch(const char* name, const char* value) {
  const std::string_view v = value == nullptr ? "" : value;
  if (v.empty() || v == "0") return false;
  if (v == "1") return true;
  throw std::invalid_argument(std::string(name) + ": expected unset, empty, 0 or 1, got '" +
                              std::string(v) + "'");
}

/// Positive integer, the whole string consumed; unset or empty yields
/// `fallback`.
inline int parse_env_positive_int(const char* name, const char* value, int fallback) {
  const std::string_view v = value == nullptr ? "" : value;
  if (v.empty()) return fallback;
  int n = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
  if (ec != std::errc{} || end != v.data() + v.size() || n <= 0) {
    throw std::invalid_argument(std::string(name) + ": expected a positive integer, got '" +
                                std::string(v) + "'");
  }
  return n;
}

}  // namespace vhadoop::sim
