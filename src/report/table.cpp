#include "report/table.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace sntrust {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty())
    throw std::invalid_argument("Table: need at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("Table::add_row: column count mismatch");
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  const auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "" : "  ");
      out << row[c];
      if (c + 1 < row.size())
        out << std::string(widths[c] - row[c].size(), ' ');
    }
    out << '\n';
  };

  emit_row(headers_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < widths.size(); ++c)
    rule += widths[c] + (c == 0 ? 0 : 2);
  out << std::string(rule, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
}

}  // namespace sntrust
