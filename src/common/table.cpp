#include "src/common/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/common/error.h"

namespace bpvec {

Table::Table(std::string title) : title_(std::move(title)) {}

void Table::set_header(std::vector<std::string> header) {
  BPVEC_CHECK_MSG(rows_.empty(), "set_header must precede add_row");
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  BPVEC_CHECK_MSG(row.size() == header_.size(),
                  "row arity must match header");
  rows_.push_back(std::move(row));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::ratio(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*fx", precision, v);
  return buf;
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  std::ostringstream os;
  if (!title_.empty()) os << "== " << title_ << " ==\n";
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      os << row[c];
      os << std::string(width[c] - row[c].size(), ' ');
    }
    os << '\n';
  };
  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) {
    total += width[c] + (c == 0 ? 0 : 2);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

void Table::print() const { std::fputs(to_string().c_str(), stdout); }

}  // namespace bpvec
