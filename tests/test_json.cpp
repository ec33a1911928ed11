// Tests for the minimal JSON reader/writer: parse/dump round trips,
// exact number preservation (the disk cache's bit-identity and the CI
// gate's byte-identical reports both rest on it), and parse-error
// quality (manifests are hand-written).
#include "src/common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/error.h"

namespace bpvec::common::json {
namespace {

TEST(Json, ParsesPrimitives) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("-7").as_int(), -7);
  EXPECT_EQ(parse("0").as_int(), 0);
  EXPECT_DOUBLE_EQ(parse("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(parse("-1e3").as_double(), -1000.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse("  \"spaced\"  ").as_string(), "spaced");
}

TEST(Json, IntAndDoubleAreDistinctKinds) {
  EXPECT_TRUE(parse("5").is_int());
  EXPECT_FALSE(parse("5").is_double());
  EXPECT_TRUE(parse("5.0").is_double());
  EXPECT_FALSE(parse("5.0").is_int());
  EXPECT_TRUE(parse("5e0").is_double());
  // as_double accepts ints exactly; as_int refuses doubles.
  EXPECT_DOUBLE_EQ(parse("5").as_double(), 5.0);
  EXPECT_THROW(parse("5.0").as_int(), Error);
  // Equality keeps them apart.
  EXPECT_NE(parse("1"), parse("1.0"));
}

TEST(Json, Int64RoundTripsExactly) {
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  const std::int64_t small = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(parse(std::to_string(big)).as_int(), big);
  EXPECT_EQ(parse(std::to_string(small)).as_int(), small);
  EXPECT_EQ(parse(Value(big).dump()).as_int(), big);
  // Beyond int64: still a valid JSON number, represented as a double.
  const Value v = parse("18446744073709551616");
  EXPECT_TRUE(v.is_double());
}

TEST(Json, DoubleRoundTripsBitExactly) {
  const double cases[] = {0.0,
                          -0.0,
                          0.1,
                          1.0 / 3.0,
                          6.02214076e23,
                          -2.5e-10,
                          3.14159265358979312,
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::min(),
                          1.0000000000000002};  // 1 + ulp
  for (double d : cases) {
    const Value round_tripped = parse(format_double(d));
    ASSERT_TRUE(round_tripped.is_double()) << format_double(d);
    const double back = round_tripped.as_double();
    std::uint64_t a, b;
    std::memcpy(&a, &d, sizeof a);
    std::memcpy(&b, &back, sizeof b);
    EXPECT_EQ(a, b) << "value " << format_double(d);
  }
}

TEST(Json, FormatDoubleHandlesNonFinite) {
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(format_double(std::nan("")), "null");
}

TEST(Json, ParsesNestedStructures) {
  const Value v = parse(R"({
    "name": "fig5",
    "grids": [{"platforms": ["tpu_like", "bpvec"], "count": 2}],
    "empty_arr": [],
    "empty_obj": {},
    "flag": true
  })");
  EXPECT_EQ(v.at("name").as_string(), "fig5");
  const Array& grids = v.at("grids").as_array();
  ASSERT_EQ(grids.size(), 1u);
  EXPECT_EQ(grids[0].at("platforms").as_array()[1].as_string(), "bpvec");
  EXPECT_EQ(grids[0].at("count").as_int(), 2);
  EXPECT_EQ(v.at("empty_arr").as_array().size(), 0u);
  EXPECT_EQ(v.at("empty_obj").members().size(), 0u);
  EXPECT_EQ(v.at("flag").as_bool(), true);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), Error);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(parse(R"("Aé")").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parse(R"("😀")").as_string(), "\xf0\x9f\x98\x80");
  // Writer escapes what the parser requires escaped.
  const std::string raw = "quote\" back\\ newline\n tab\t ctrl\x01 end";
  EXPECT_EQ(parse(Value(raw).dump()).as_string(), raw);
}

TEST(Json, DumpIsDeterministicAndRoundTrips) {
  Value obj = Value::object();
  obj.set("b_first", 1);
  obj.set("a_second", Value::array());
  obj.set("nested", Value::object());
  Value arr = Value::array();
  arr.push_back(2.5);
  arr.push_back("s");
  arr.push_back(nullptr);
  obj.set("arr", std::move(arr));
  // Insertion order is preserved — not sorted.
  const std::string compact = obj.dump();
  EXPECT_EQ(compact,
            R"({"b_first":1,"a_second":[],"nested":{},"arr":[2.5,"s",null]})");
  EXPECT_EQ(parse(compact), obj);
  // Pretty output parses back to the same value, byte-stable.
  const std::string pretty = obj.dump(2);
  EXPECT_EQ(parse(pretty), obj);
  EXPECT_EQ(pretty, obj.dump(2));
}

TEST(Json, SetOverwritesInPlace) {
  Value obj = Value::object();
  obj.set("k", 1);
  obj.set("other", 2);
  obj.set("k", 3);
  EXPECT_EQ(obj.members().size(), 2u);
  EXPECT_EQ(obj.at("k").as_int(), 3);
  EXPECT_EQ(obj.members()[0].first, "k");  // position preserved
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    parse("{\n  \"ok\": 1,\n  bad\n}");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("column 3"), std::string::npos) << msg;
  }
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), Error);
  EXPECT_THROW(parse("{"), Error);
  EXPECT_THROW(parse("[1, 2"), Error);
  EXPECT_THROW(parse("{\"a\" 1}"), Error);
  EXPECT_THROW(parse("\"unterminated"), Error);
  EXPECT_THROW(parse("tru"), Error);
  EXPECT_THROW(parse("01"), Error);      // leading zero
  EXPECT_THROW(parse("1."), Error);      // digit required after '.'
  EXPECT_THROW(parse("1e"), Error);      // digit required in exponent
  EXPECT_THROW(parse("-"), Error);
  EXPECT_THROW(parse("{} extra"), Error);
  EXPECT_THROW(parse("[1] 2"), Error);
  EXPECT_THROW(parse("\"bad\x01ctrl\""), Error);
  EXPECT_THROW(parse(R"("\ud800 lone")"), Error);
  EXPECT_THROW(parse("1e999"), Error);   // out of double range
}

TEST(Json, RejectsDuplicateKeys) {
  try {
    parse(R"({"a": 1, "a": 2})");
    FAIL() << "expected duplicate-key error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate object key \"a\""),
              std::string::npos);
  }
}

TEST(Json, RejectsExcessiveNesting) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_THROW(parse(deep), Error);
  // 100 levels is fine.
  std::string ok(100, '[');
  ok += std::string(100, ']');
  EXPECT_NO_THROW(parse(ok));
}

TEST(Json, AccessorsCheckKinds) {
  const Value v = parse("[1]");
  EXPECT_THROW(v.as_bool(), Error);
  EXPECT_THROW(v.as_int(), Error);
  EXPECT_THROW(v.as_string(), Error);
  EXPECT_THROW(v.members(), Error);
  EXPECT_THROW(parse("3").as_array(), Error);
  EXPECT_THROW(parse("null").size(), Error);
}

TEST(Json, ParseFileReportsPath) {
  try {
    parse_file("/nonexistent/definitely_missing.json");
    FAIL() << "expected error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("definitely_missing.json"),
              std::string::npos);
  }
}

/// The what() of the bpvec::Error `f` throws ("" when it returns).
template <typename F>
std::string error_of(F f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(FieldReader, ErrorsCarryPrefixAndContextWhenSet) {
  const Value v = parse(R"({"n": "4", "big": 3000000000, "ok": 7})");
  const FieldReader bare("");
  const FieldReader doc("manifest");
  const FieldReader grid = doc.in("grids[0]");
  EXPECT_EQ(error_of([&] { bare.fail("m"); }), "m");
  EXPECT_EQ(error_of([&] { bare.in("c").fail("m"); }), "c: m");
  EXPECT_EQ(error_of([&] { doc.fail("m"); }), "manifest: m");
  EXPECT_EQ(error_of([&] { grid.get_int(v.at("n"), "n"); }),
            "manifest: grids[0]: \"n\" must be an integer");
  EXPECT_EQ(error_of([&] { grid.get_int(v.at("big"), "big"); }),
            "manifest: grids[0]: \"big\" out of range");
  EXPECT_EQ(grid.get_int64(v.at("big"), "big"), 3000000000);
  EXPECT_EQ(grid.get_int(v.at("ok"), "ok"), 7);
  // A nested reader's error gains the outer prefix and context.
  const auto inner_fails = [] { FieldReader("inner").fail("m"); };
  EXPECT_EQ(error_of([&] { grid.nest(inner_fails); }),
            "manifest: grids[0]: inner: m");
  EXPECT_EQ(grid.nest([] { return 5; }), 5);
}

TEST(FieldReader, TokensMatchNormalizedAndReturnTheCanonicalSpelling) {
  const FieldReader r("x");
  const std::vector<std::string> options{"tpu_like", "bpvec"};
  EXPECT_EQ(r.token("TPU-Like", "platform", options), "tpu_like");
  EXPECT_EQ(r.token_index("BPVEC", "platform", options), 1u);
  EXPECT_EQ(error_of([&] { r.token("gpu", "platform", options); }),
            "x: unknown platform \"gpu\"; expected one of \"tpu_like\", "
            "\"bpvec\"");
}

}  // namespace
}  // namespace bpvec::common::json
