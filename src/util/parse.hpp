// Whole-string number parsers shared by the command-line tools, the
// examples and the SNTRUST_* knob parser (exec/run_config.hpp), so a value
// reads the same wherever it is given.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace sntrust {

/// `text` read whole as a decimal integer in [min, max]: digits only, with
/// no sign, space or suffix. nullopt for anything else ("2x", "", "-1",
/// "1e3", out of range), so a tool can reject it as a usage error.
std::optional<std::uint64_t> parse_count(std::string_view text,
                                         std::uint64_t min, std::uint64_t max);

/// `text` read whole as a finite decimal number >= 0 ("0.05", "2", "1e-3");
/// nullopt for anything else ("0.05x", "", "-1", "-0", "inf", "nan").
std::optional<double> parse_nonnegative(std::string_view text);

}  // namespace sntrust
