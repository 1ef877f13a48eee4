#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sntrust::json {

namespace {

constexpr std::size_t kMaxDepth = 200;

void append_utf8(std::string& out, std::uint32_t code_point) {
  if (code_point < 0x80) {
    out.push_back(static_cast<char>(code_point));
  } else if (code_point < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code_point >> 6)));
    out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else if (code_point < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (code_point >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (code_point >> 18)));
    out.push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  char peek() const {
    if (pos_ >= text_.size())
      throw std::runtime_error("json parse error at byte " +
                               std::to_string(pos_) + ": unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void expect_literal(const char* literal) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p)
        fail(std::string("invalid literal (expected \"") + literal + "\")");
      ++pos_;
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("truncated \\u escape");
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9')
        value |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        fail("invalid hex digit in \\u escape");
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t code_point = parse_hex4();
          if (code_point >= 0xD800 && code_point <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              fail("high surrogate not followed by \\u escape");
            pos_ += 2;
            const std::uint32_t low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF)
              fail("invalid low surrogate");
            code_point =
                0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
          } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
            fail("lone low surrogate");
          }
          append_utf8(out, code_point);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    // Integer part: 0, or a nonzero digit followed by digits.
    if (pos_ >= text_.size()) fail("truncated number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else if (text_[pos_] >= '1' && text_[pos_] <= '9') {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    } else {
      fail("invalid number");
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        fail("digit required after decimal point");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        fail("digit required in exponent");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (integral) {
      std::int64_t int_value = 0;
      const auto [ptr, ec] = std::from_chars(
          token.data(), token.data() + token.size(), int_value);
      if (ec == std::errc{} && ptr == token.data() + token.size())
        return Value::integer(int_value);
      // Falls through for magnitudes beyond int64 range.
    }
    return Value::number(std::strtod(token.c_str(), nullptr));
  }

  Value parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    switch (peek()) {
      case '{': {
        ++pos_;
        Object members;
        skip_ws();
        if (peek() == '}') {
          ++pos_;
          return Value::object(std::move(members));
        }
        for (;;) {
          skip_ws();
          std::string key = parse_string();
          skip_ws();
          expect(':');
          skip_ws();
          members.emplace_back(std::move(key), parse_value(depth + 1));
          skip_ws();
          const char c = peek();
          ++pos_;
          if (c == '}') return Value::object(std::move(members));
          if (c != ',') fail("expected ',' or '}' in object");
        }
      }
      case '[': {
        ++pos_;
        Array items;
        skip_ws();
        if (peek() == ']') {
          ++pos_;
          return Value::array(std::move(items));
        }
        for (;;) {
          skip_ws();
          items.push_back(parse_value(depth + 1));
          skip_ws();
          const char c = peek();
          ++pos_;
          if (c == ']') return Value::array(std::move(items));
          if (c != ',') fail("expected ',' or ']' in array");
        }
      }
      case '"': return Value::string(parse_string());
      case 't': expect_literal("true"); return Value::boolean(true);
      case 'f': expect_literal("false"); return Value::boolean(false);
      case 'n': expect_literal("null"); return Value::null();
      default: return parse_number();
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void write_double(std::ostream& out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no NaN/Infinity; null is the conventional strict encoding.
    out << "null";
    return;
  }
  char buffer[32];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec == std::errc{})
    out.write(buffer, ptr - buffer);
  else
    out << value;
}

}  // namespace

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      case '\b': out << "\\b"; break;
      case '\f': out << "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

std::string escape(const std::string& s) {
  std::ostringstream out;
  write_json_string(out, s);
  return out.str();
}

Value Value::parse(const std::string& text) {
  Parser parser{text};
  return parser.parse_document();
}

Value Value::null() { return Value{}; }

Value Value::boolean(bool value) {
  Value v;
  v.kind_ = Kind::Bool;
  v.bool_ = value;
  return v;
}

Value Value::number(double value) {
  Value v;
  v.kind_ = Kind::Number;
  v.num_ = value;
  return v;
}

Value Value::integer(std::int64_t value) {
  Value v;
  v.kind_ = Kind::Number;
  v.num_ = static_cast<double>(value);
  v.int_valued_ = true;
  v.int_ = value;
  return v;
}

Value Value::string(std::string value) {
  Value v;
  v.kind_ = Kind::String;
  v.str_ = std::move(value);
  return v;
}

Value Value::array(Array items) {
  Value v;
  v.kind_ = Kind::Array;
  v.arr_ = std::move(items);
  return v;
}

Value Value::object(Object members) {
  Value v;
  v.kind_ = Kind::Object;
  v.obj_ = std::move(members);
  return v;
}

namespace {
[[noreturn]] void kind_error(const char* wanted) {
  throw std::runtime_error(std::string("json value is not a ") + wanted);
}
}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::Bool) kind_error("bool");
  return bool_;
}

double Value::as_number() const {
  if (kind_ != Kind::Number) kind_error("number");
  return num_;
}

std::int64_t Value::as_int() const {
  if (kind_ != Kind::Number) kind_error("number");
  if (int_valued_) return int_;
  // Truncation is defined only for values in [-2^63, 2^63).
  if (!(num_ >= -0x1p63 && num_ < 0x1p63))
    throw std::runtime_error("json number is outside the int64 range");
  return static_cast<std::int64_t>(num_);
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::String) kind_error("string");
  return str_;
}

const Array& Value::as_array() const {
  if (kind_ != Kind::Array) kind_error("array");
  return arr_;
}

const Object& Value::as_object() const {
  if (kind_ != Kind::Object) kind_error("object");
  return obj_;
}

const Value* Value::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const Member& member : obj_)
    if (member.first == key) return &member.second;
  return nullptr;
}

void Value::write(std::ostream& out) const {
  switch (kind_) {
    case Kind::Null: out << "null"; break;
    case Kind::Bool: out << (bool_ ? "true" : "false"); break;
    case Kind::Number:
      if (int_valued_)
        out << int_;
      else
        write_double(out, num_);
      break;
    case Kind::String: write_json_string(out, str_); break;
    case Kind::Array: {
      out << '[';
      bool first = true;
      for (const Value& item : arr_) {
        if (!first) out << ',';
        first = false;
        item.write(out);
      }
      out << ']';
      break;
    }
    case Kind::Object: {
      out << '{';
      bool first = true;
      for (const Member& member : obj_) {
        if (!first) out << ',';
        first = false;
        write_json_string(out, member.first);
        out << ':';
        member.second.write(out);
      }
      out << '}';
      break;
    }
  }
}

std::string Value::dump() const {
  std::ostringstream out;
  write(out);
  return out.str();
}

}  // namespace sntrust::json
