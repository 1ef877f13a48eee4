// Minimal strict JSON reader/writer shared by the observability exports
// (Chrome traces, run reports) and the benchdiff tool.
//
// `Value` is an ordered document model: objects remember insertion order so
// reports serialize deterministically and diff cleanly. `parse` is strict
// RFC-8259 — no trailing commas, no comments, no NaN/Infinity literals, full
// escape validation including surrogate pairs — so "our reports parse under a
// strict parser" is testable against our own reader. `write_json_string`
// escapes control characters and passes non-ASCII UTF-8 through untouched;
// escaping round-trips through `parse`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace sntrust::json {

/// Writes `s` as a JSON string literal (quotes, backslashes, and control
/// characters escaped; non-ASCII bytes passed through as UTF-8).
void write_json_string(std::ostream& out, const std::string& s);

/// `write_json_string` into a string.
std::string escape(const std::string& s);

class Value;
using Array = std::vector<Value>;
using Member = std::pair<std::string, Value>;
using Object = std::vector<Member>;  ///< insertion-ordered

class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;

  /// Strict parse of a complete JSON document (throws std::runtime_error
  /// with a byte offset on any violation, including trailing characters).
  static Value parse(const std::string& text);

  // Construction helpers for writers.
  static Value null();
  static Value boolean(bool value);
  static Value number(double value);
  static Value integer(std::int64_t value);
  static Value string(std::string value);
  static Value array(Array items);
  static Value object(Object members);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  /// A number written without fraction or exponent, within int64 range.
  bool is_integer() const { return kind_ == Kind::Number && int_valued_; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  // Typed accessors; throw std::runtime_error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  /// Number truncated toward zero; throws std::runtime_error for a number
  /// outside int64's range.
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  /// Serializes compactly (no whitespace). Integral numbers print without a
  /// decimal point; other doubles print shortest-round-trip.
  void write(std::ostream& out) const;
  std::string dump() const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  bool int_valued_ = false;  ///< number materialized from an integer
  std::int64_t int_ = 0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace sntrust::json
