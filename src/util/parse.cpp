#include "util/parse.hpp"

#include <charconv>
#include <cmath>

namespace sntrust {

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

}  // namespace sntrust
