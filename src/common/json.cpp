#include "src/common/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/common/error.h"
#include "src/common/token.h"

namespace bpvec::common::json {

namespace {

[[noreturn]] void kind_error(const char* expected, const char* actual) {
  throw Error(std::string("json: expected ") + expected + ", got " + actual);
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

Value::Value(std::uint64_t v) : kind_(Kind::kInt) {
  BPVEC_CHECK_MSG(v <= static_cast<std::uint64_t>(
                           std::numeric_limits<std::int64_t>::max()),
                  "json: unsigned value does not fit in int64");
  int_ = static_cast<std::int64_t>(v);
}

const char* Value::kind_name() const {
  switch (kind_) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kInt: return "int";
    case Kind::kDouble: return "double";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "?";
}

bool Value::as_bool() const {
  if (!is_bool()) kind_error("bool", kind_name());
  return bool_;
}

std::int64_t Value::as_int() const {
  if (!is_int()) kind_error("int", kind_name());
  return int_;
}

double Value::as_double() const {
  if (is_int()) return static_cast<double>(int_);
  if (!is_double()) kind_error("number", kind_name());
  return double_;
}

const std::string& Value::as_string() const {
  if (!is_string()) kind_error("string", kind_name());
  return string_;
}

const Array& Value::as_array() const {
  if (!is_array()) kind_error("array", kind_name());
  return array_;
}

Array& Value::as_array() {
  if (!is_array()) kind_error("array", kind_name());
  return array_;
}

const Object& Value::members() const {
  if (!is_object()) kind_error("object", kind_name());
  return object_;
}

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const Member& m : object_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  if (!is_object()) kind_error("object", kind_name());
  const Value* v = find(key);
  if (v == nullptr) throw Error("json: missing key \"" + key + "\"");
  return *v;
}

void Value::set(std::string key, Value v) {
  if (!is_object()) kind_error("object", kind_name());
  for (Member& m : object_) {
    if (m.first == key) {
      m.second = std::move(v);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(v));
}

void Value::push_back(Value v) {
  if (!is_array()) kind_error("array", kind_name());
  array_.push_back(std::move(v));
}

std::size_t Value::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  kind_error("array or object", kind_name());
}

bool Value::operator==(const Value& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return bool_ == other.bool_;
    case Kind::kInt: return int_ == other.int_;
    case Kind::kDouble:
      // Bit-pattern comparison would distinguish -0.0 from 0.0 but also
      // NaN from itself; value comparison matches what round-trip
      // guarantees promise (finite values).
      return double_ == other.double_;
    case Kind::kString: return string_ == other.string_;
    case Kind::kArray: return array_ == other.array_;
    case Kind::kObject: return object_ == other.object_;
  }
  return false;
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  std::string s(buf);
  // Integral forms ("5", "-0", "1e+300") would re-parse as an int (or
  // lose -0.0); force a '.' so the kind and bit pattern survive.
  if (s.find_first_of(".eE") == std::string::npos) s += ".0";
  return s;
}

namespace {

struct Writer {
  std::string out;
  int indent;  // < 0: compact

  void newline(int depth) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) *
                   static_cast<std::size_t>(depth),
               ' ');
  }

  void write(const Value& v, int depth) {
    switch (v.kind()) {
      case Value::Kind::kNull: out += "null"; return;
      case Value::Kind::kBool: out += v.as_bool() ? "true" : "false"; return;
      case Value::Kind::kInt: out += std::to_string(v.as_int()); return;
      case Value::Kind::kDouble: out += format_double(v.as_double()); return;
      case Value::Kind::kString: append_escaped(out, v.as_string()); return;
      case Value::Kind::kArray: {
        const Array& a = v.as_array();
        if (a.empty()) {
          out += "[]";
          return;
        }
        out += '[';
        for (std::size_t i = 0; i < a.size(); ++i) {
          if (i) out += ',';
          newline(depth + 1);
          write(a[i], depth + 1);
        }
        newline(depth);
        out += ']';
        return;
      }
      case Value::Kind::kObject: {
        const Object& o = v.members();
        if (o.empty()) {
          out += "{}";
          return;
        }
        out += '{';
        for (std::size_t i = 0; i < o.size(); ++i) {
          if (i) out += ',';
          newline(depth + 1);
          append_escaped(out, o[i].first);
          out += indent < 0 ? ":" : ": ";
          write(o[i].second, depth + 1);
        }
        newline(depth);
        out += '}';
        return;
      }
    }
  }
};

}  // namespace

std::string Value::dump(int indent) const {
  Writer w{std::string(), indent};
  w.write(*this, 0);
  if (indent >= 0) w.out += '\n';
  return w.out;
}

// ----------------------------------------------------------------- parser

namespace {

constexpr int kMaxDepth = 200;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) {
    // Recompute line/column from the byte offset — errors are rare, the
    // hot path stays a bare offset increment.
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream os;
    os << "json parse error at line " << line << ", column " << col << ": "
       << message;
    throw Error(os.str());
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid token");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid token");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("invalid token");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  Value parse_object(int depth) {
    expect('{');
    Value obj = Value::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      if (obj.find(key) != nullptr) {
        fail("duplicate object key \"" + key + "\"");
      }
      skip_whitespace();
      expect(':');
      obj.set(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parse_array(int depth) {
    expect('[');
    Value arr = Value::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      fail("expected ',' or ']' in array");
    }
  }

  void append_utf8(std::string& out, unsigned code_point) {
    if (code_point < 0x80) {
      out += static_cast<char>(code_point);
    } else if (code_point < 0x800) {
      out += static_cast<char>(0xC0 | (code_point >> 6));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else if (code_point < 0x10000) {
      out += static_cast<char>(0xE0 | (code_point >> 12));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code_point >> 18));
      out += static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = peek();
      ++pos_;
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // surrogate pair
            if (!consume_literal("\\u")) fail("unpaired surrogate");
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape sequence");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size()) fail("truncated number");
    // Integer part (leading zeros are invalid JSON).
    if (text_[pos_] == '0') {
      ++pos_;
    } else if (text_[pos_] >= '1' && text_[pos_] <= '9') {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    } else {
      fail("invalid number");
    }
    bool is_integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_integral = false;
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("digit required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("digit required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (is_integral) {
      std::int64_t iv = 0;
      const auto [p, ec] = std::from_chars(first, last, iv);
      if (ec == std::errc() && p == last) return Value(iv);
      // Falls through on int64 overflow: the value is still a valid JSON
      // number, represent it as a double.
    }
    double dv = 0.0;
    const auto [p, ec] = std::from_chars(first, last, dv);
    if (ec == std::errc::result_out_of_range) fail("number out of range");
    if (ec != std::errc() || p != last) fail("invalid number");
    return Value(dv);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("json: cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw Error("json: error reading file: " + path);
  try {
    return parse(buffer.str());
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

void FieldReader::fail(const std::string& message) const {
  std::string what = context_.empty() ? message : context_ + ": " + message;
  throw Error(prefix_.empty() ? what : prefix_ + ": " + what);
}

void FieldReader::check_keys(const Value& obj,
                             const std::vector<std::string>& allowed) const {
  for (const auto& [key, value] : obj.members()) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      fail("unknown key \"" + key + "\"; allowed keys: " +
           quoted_token_list(allowed));
    }
  }
}

const Value& FieldReader::require(const Value& obj,
                                  const std::string& key) const {
  const Value* v = obj.find(key);
  if (v == nullptr) fail("missing required key \"" + key + "\"");
  return *v;
}

std::string FieldReader::get_string(const Value& v,
                                    const std::string& key) const {
  if (!v.is_string()) fail("\"" + key + "\" must be a string");
  return v.as_string();
}

std::int64_t FieldReader::get_int64(const Value& v,
                                    const std::string& key) const {
  if (!v.is_int()) fail("\"" + key + "\" must be an integer");
  return v.as_int();
}

int FieldReader::get_int(const Value& v, const std::string& key) const {
  const std::int64_t i = get_int64(v, key);
  if (i < std::numeric_limits<int>::min() ||
      i > std::numeric_limits<int>::max()) {
    fail("\"" + key + "\" out of range");
  }
  return static_cast<int>(i);
}

double FieldReader::get_number(const Value& v, const std::string& key) const {
  if (!v.is_number()) fail("\"" + key + "\" must be a number");
  return v.as_double();
}

bool FieldReader::get_bool(const Value& v, const std::string& key) const {
  if (!v.is_bool()) fail("\"" + key + "\" must be a boolean");
  return v.as_bool();
}

std::vector<std::string> FieldReader::get_string_list(
    const Value& v, const std::string& key) const {
  if (!v.is_array() || v.as_array().empty()) {
    fail("\"" + key + "\" must be a non-empty array of strings");
  }
  std::vector<std::string> out;
  for (const Value& e : v.as_array()) {
    if (!e.is_string()) fail("\"" + key + "\" must contain only strings");
    out.push_back(e.as_string());
  }
  return out;
}

std::size_t FieldReader::token_index(
    const std::string& value, const std::string& what,
    const std::vector<std::string>& options) const {
  const std::string norm = normalize_token(value);
  for (std::size_t i = 0; i < options.size(); ++i) {
    if (normalize_token(options[i]) == norm) return i;
  }
  fail("unknown " + what + " \"" + value + "\"; expected one of " +
       quoted_token_list(options));
}

}  // namespace bpvec::common::json
