// Fixed-width text table printer. Every bench prints its paper artifact
// through this so the output is uniform and diffable run-to-run.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace sntrust {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; must match the header count (throws otherwise).
  void add_row(std::vector<std::string> cells);

  std::size_t num_rows() const noexcept { return rows_.size(); }

  /// Renders with column alignment, a header separator, and a trailing
  /// newline.
  void print(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sntrust
