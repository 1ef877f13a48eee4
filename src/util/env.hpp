// Environment-variable configuration helpers for benches and examples, and
// the whole-string number parsers the command-line tools share.
//
// The benchmark harness scales its workloads with SNTRUST_SCALE and similar
// knobs; these helpers centralize the parsing so every binary treats the
// variables identically.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace sntrust {

/// Returns the value of `name` parsed as a double, or `fallback` when the
/// variable is unset or unparsable: empty, not a number, followed by
/// anything but whitespace ("0.5x"), or overflowing a double ("1e999").
double env_double(const std::string& name, double fallback);

/// Returns the value of `name` parsed as a base-10 64-bit integer, or
/// `fallback` when it is unset or unparsable: empty, not a number, followed
/// by anything but whitespace ("12abc"), or out of range.
std::int64_t env_int(const std::string& name, std::int64_t fallback);

/// Returns the value of `name` parsed as a boolean, or `fallback` when the
/// variable is unset, empty, or unrecognized. Accepts (case-insensitively)
/// "1"/"true"/"yes"/"on" and "0"/"false"/"no"/"off".
bool env_bool(const std::string& name, bool fallback);

/// Returns the raw value of `name`, or `fallback` when unset or empty.
std::string env_string(const std::string& name, const std::string& fallback);

/// `text` read whole as a decimal integer in [min, max]: digits only, with
/// no sign, space or suffix. nullopt for anything else ("2x", "", "-1",
/// "1e3", out of range), so a tool can reject it as a usage error.
std::optional<std::uint64_t> parse_count(std::string_view text,
                                         std::uint64_t min, std::uint64_t max);

/// `text` read whole as a finite decimal number >= 0 ("0.05", "2", "1e-3");
/// nullopt for anything else ("0.05x", "", "-1", "-0", "inf", "nan").
std::optional<double> parse_nonnegative(std::string_view text);

/// Global workload scale for benches: SNTRUST_SCALE (default 1.0, clamped to
/// [0.01, 100]). Dataset analogue sizes are multiplied by this.
double bench_scale();

}  // namespace sntrust
