#include "util/env.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace sntrust {

namespace {

/// True when strto* consumed a number from `raw` and only whitespace
/// follows it: "12abc" and "0.5x" are not numbers.
bool parsed_whole(const char* raw, const char* end) {
  if (end == raw) return false;
  while (std::isspace(static_cast<unsigned char>(*end))) ++end;
  return *end == '\0';
}

}  // namespace

double env_double(const std::string& name, double fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(raw, &end);
  if (!parsed_whole(raw, end)) return fallback;
  // Overflow: strtod returns +-HUGE_VAL with ERANGE. Underflow also sets
  // ERANGE but yields a usable tiny value.
  if (errno == ERANGE && std::isinf(value)) return fallback;
  return value;
}

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(raw, &end, 10);
  if (!parsed_whole(raw, end) || errno == ERANGE) return fallback;
  return static_cast<std::int64_t>(value);
}

bool env_bool(const std::string& name, bool fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  std::string value{raw};
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (value == "1" || value == "true" || value == "yes" || value == "on")
    return true;
  if (value == "0" || value == "false" || value == "no" || value == "off")
    return false;
  return fallback;
}

std::string env_string(const std::string& name, const std::string& fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::string{raw};
}

std::optional<std::uint64_t> parse_count(std::string_view text,
                                         std::uint64_t min, std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || value < min || value > max)
    return std::nullopt;
  return value;
}

std::optional<double> parse_nonnegative(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || !std::isfinite(value) ||
      std::signbit(value))
    return std::nullopt;
  return value;
}

double bench_scale() {
  return std::clamp(env_double("SNTRUST_SCALE", 1.0), 0.01, 100.0);
}

}  // namespace sntrust
