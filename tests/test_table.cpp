#include "src/common/table.h"

#include <gtest/gtest.h>

#include "src/common/error.h"

namespace bpvec {
namespace {

TEST(Table, FormatsAlignedColumns) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "2.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, RejectsHeaderAfterRows) {
  Table t;
  t.set_header({"a"});
  t.add_row({"1"});
  EXPECT_THROW(t.set_header({"b"}), Error);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(1.2345, 2), "1.23");
  EXPECT_EQ(Table::num(1.0, 0), "1");
  EXPECT_EQ(Table::ratio(2.5), "2.50x");
  EXPECT_EQ(Table::ratio(33.74, 1), "33.7x");
}

}  // namespace
}  // namespace bpvec
