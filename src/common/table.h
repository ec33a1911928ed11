// Console table used by benchmark binaries to print the rows and series
// of each table and figure of the paper.
#pragma once

#include <string>
#include <vector>

namespace bpvec {

/// A simple column-aligned text table with an optional title. Cells are
/// strings; numeric helpers format with fixed precision.
class Table {
 public:
  explicit Table(std::string title = "");

  /// Sets the header row. Must be called before adding rows.
  void set_header(std::vector<std::string> header);

  /// Adds a data row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Formats a double as e.g. "1.43x" (ratio) or plain fixed decimal.
  static std::string num(double v, int precision = 2);
  static std::string ratio(double v, int precision = 2);

  /// Renders to an aligned ASCII table.
  std::string to_string() const;

  /// Prints to stdout (table form).
  void print() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bpvec
