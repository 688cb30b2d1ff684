// Fixed-width ASCII tables and CSV output used by reproduce_paper and
// the CLI to print paper-style rows.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace memx {

/// A simple column-aligned table.
class Table {
public:
  explicit Table(std::vector<std::string> headers);

  /// Append one row; must have exactly as many cells as there are headers.
  void addRow(std::vector<std::string> cells);

  [[nodiscard]] std::size_t rowCount() const noexcept {
    return rows_.size();
  }
  [[nodiscard]] std::size_t columnCount() const noexcept {
    return headers_.size();
  }
  [[nodiscard]] const std::vector<std::string>& row(std::size_t i) const;

  /// Render with aligned columns and a header underline.
  [[nodiscard]] std::string toString() const;

  /// Write RFC-4180-style CSV (quotes cells containing commas/quotes).
  void writeCsv(std::ostream& os) const;

  friend std::ostream& operator<<(std::ostream& os, const Table& t) {
    return os << t.toString();
  }

private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format with `decimals` digits after the point (fixed notation).
[[nodiscard]] std::string fmtFixed(double v, int decimals);

/// Round to three significant figures the way the paper prints values
/// (0.969, 37300, 1110000, ...).
[[nodiscard]] std::string fmtSig3(double v);

}  // namespace memx
