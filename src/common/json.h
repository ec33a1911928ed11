// Minimal dependency-free JSON reader/writer.
//
// The CLI driver, the scenario manifests, the persistent disk cache, and
// the BENCH_*.json emitters all speak JSON; this is the one
// implementation they share so escaping and number formatting cannot
// drift between them.
//
// Design constraints (why not "just parse with a library"):
//   * No third-party dependencies — the container bakes in only the C++
//     toolchain.
//   * Integers and doubles stay distinct kinds: cycle counts are int64
//     and must round-trip exactly; doubles are written with %.17g so a
//     write→parse round trip reproduces the identical bit pattern (the
//     disk cache's bit-identity guarantee rests on this).
//   * Object members preserve insertion order and the writer is fully
//     deterministic, so two runs producing equal values produce
//     byte-identical files (tests/test_goldens compares reports bytewise).
//   * Parse errors carry line/column and a message — manifests are
//     hand-written, so "unexpected token" alone is not acceptable.
//
// FieldReader is the one field-level reader over parsed documents:
// scenario manifests, workload-schema network files and serve request
// envelopes all check keys, types, ranges and token vocabularies through
// it. Its errors read "<prefix>: <context>: <message>", the prefix
// ("manifest", "network schema", or none for envelopes) and the context
// (e.g. `grids[0]`, `layers[2] ("c1")`) dropped when empty.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/error.h"

namespace bpvec::common::json {

class Value;

/// Array elements in document order.
using Array = std::vector<Value>;
/// Object members in insertion order (deterministic output; duplicate
/// keys are a parse error).
using Member = std::pair<std::string, Value>;
using Object = std::vector<Member>;

class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() = default;  // null
  Value(std::nullptr_t) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(int v) : kind_(Kind::kInt), int_(v) {}
  Value(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  Value(std::uint64_t v);  // throws when it does not fit in int64
  Value(double v) : kind_(Kind::kDouble), double_(v) {}
  Value(const char* s) : kind_(Kind::kString), string_(s) {}
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static Value array() { Value v; v.kind_ = Kind::kArray; return v; }
  static Value object() { Value v; v.kind_ = Kind::kObject; return v; }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Checked accessors — throw bpvec::Error naming the expected and
  // actual kinds on mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;  // kInt only (no silent truncation)
  double as_double() const;     // kInt or kDouble (int converts exactly)
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& members() const;

  // ----- object helpers -----

  /// Pointer to the member value, or nullptr when absent (or not an
  /// object).
  const Value* find(const std::string& key) const;
  /// Member value; throws bpvec::Error naming `key` when absent.
  const Value& at(const std::string& key) const;
  /// Appends (or overwrites) a member. Value must be an object.
  void set(std::string key, Value v);

  // ----- array helpers -----

  /// Appends an element. Value must be an array.
  void push_back(Value v);
  std::size_t size() const;  // array/object arity; throws otherwise

  /// Serializes the value. indent < 0: compact single line; indent >= 0:
  /// pretty-printed with `indent` spaces per level. Output is
  /// deterministic. Non-finite doubles serialize as null (JSON has no
  /// inf/nan) — values that must round-trip exactly must be finite.
  std::string dump(int indent = -1) const;

  /// Deep equality. Int and double never compare equal (1 != 1.0): the
  /// distinction is what makes cycle counts exact.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

 private:
  const char* kind_name() const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses a complete JSON document (trailing garbage is an error).
/// Throws bpvec::Error with "line L, column C" context on malformed
/// input, duplicate object keys, or nesting deeper than 200 levels.
Value parse(std::string_view text);

/// Reads and parses `path`; error messages include the path.
Value parse_file(const std::string& path);

/// Typed, context-carrying reads of document fields (see the header
/// comment for the error format). `key` names the field in errors.
class FieldReader {
 public:
  explicit FieldReader(std::string prefix, std::string context = {})
      : prefix_(std::move(prefix)), context_(std::move(context)) {}

  /// The same reader in another context.
  FieldReader in(std::string context) const {
    return FieldReader(prefix_, std::move(context));
  }
  const std::string& context() const { return context_; }

  [[noreturn]] void fail(const std::string& message) const;

  /// Runs `f` and returns its result; a bpvec::Error from it (a nested
  /// reader's, say, for a network file inside a manifest) is re-raised
  /// with this reader's prefix and context in front.
  template <typename F>
  decltype(auto) nest(F&& f) const {
    try {
      return f();
    } catch (const Error& e) {
      fail(e.what());
    }
  }

  /// Rejects any member of `obj` outside `allowed` — an unknown key is a
  /// silent typo otherwise ("platform_override" quietly doing nothing).
  void check_keys(const Value& obj,
                  const std::vector<std::string>& allowed) const;
  /// The member `key` of `obj`; fails when it is absent.
  const Value& require(const Value& obj, const std::string& key) const;

  std::string get_string(const Value& v, const std::string& key) const;
  std::int64_t get_int64(const Value& v, const std::string& key) const;
  /// get_int64 that must also fit in an int.
  int get_int(const Value& v, const std::string& key) const;
  /// An int or a double.
  double get_number(const Value& v, const std::string& key) const;
  bool get_bool(const Value& v, const std::string& key) const;
  /// A non-empty array of strings.
  std::vector<std::string> get_string_list(const Value& v,
                                           const std::string& key) const;

  /// The index of `value` in the closed vocabulary `options`, matched
  /// under common::normalize_token; fails with `unknown <what> "<value>";
  /// expected one of <options>`.
  std::size_t token_index(const std::string& value, const std::string& what,
                          const std::vector<std::string>& options) const;
  /// The canonical spelling: options[token_index(...)].
  std::string token(const std::string& value, const std::string& what,
                    const std::vector<std::string>& options) const {
    return options[token_index(value, what, options)];
  }

 private:
  std::string prefix_;
  std::string context_;
};

/// Formats a finite double so that parsing the result reproduces the
/// identical bit pattern (%.17g, with ".0" appended to integral forms so
/// the value re-parses as a double, preserving e.g. the sign of -0.0).
/// Non-finite values format as "null".
std::string format_double(double v);

}  // namespace bpvec::common::json
