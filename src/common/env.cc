#include "common/env.h"

#include <cmath>
#include <cstdlib>
#include <iostream>

namespace crn {

std::optional<std::string> GetEnv(const std::string& name) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || value[0] == '\0') {
    return std::nullopt;
  }
  return std::string(value);
}

std::int64_t GetEnvInt(const std::string& name, std::int64_t fallback) {
  const auto raw = GetEnv(name);
  if (!raw) return fallback;
  try {
    std::size_t pos = 0;
    const std::int64_t parsed = std::stoll(*raw, &pos);
    if (pos == raw->size()) return parsed;
  } catch (const std::exception&) {
  }
  // Silently ignoring an operator typo is worse than a line of stderr.
  std::cerr << "warning: ignoring malformed "  // crn-lint-ok: operator-facing warning
            << name << "=" << *raw << "\n";
  return fallback;
}

double GetEnvDouble(const std::string& name, double fallback) {
  const auto raw = GetEnv(name);
  if (!raw) return fallback;
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(*raw, &pos);
    // std::stod accepts "nan" and "inf"; no setting has a meaning for them.
    if (pos == raw->size() && std::isfinite(parsed)) return parsed;
  } catch (const std::exception&) {
  }
  // Silently ignoring an operator typo is worse than a line of stderr.
  std::cerr << "warning: ignoring malformed "  // crn-lint-ok: operator-facing warning
            << name << "=" << *raw << "\n";
  return fallback;
}

bool GetEnvBool(const std::string& name, bool fallback) {
  const auto raw = GetEnv(name);
  if (!raw) return fallback;
  if (*raw == "1" || *raw == "true" || *raw == "yes" || *raw == "on") return true;
  if (*raw == "0" || *raw == "false" || *raw == "no" || *raw == "off") return false;
  // Silently ignoring an operator typo is worse than a line of stderr.
  std::cerr << "warning: ignoring malformed "  // crn-lint-ok: operator-facing warning
            << name << "=" << *raw << "\n";
  return fallback;
}

}  // namespace crn
