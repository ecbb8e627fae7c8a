// Console table / CSV emission used by the benchmark harnesses, and the one
// printf-style append that the rendered reports share.
//
// The harnesses print paper-style tables (aligned columns on stdout) and can
// additionally dump CSV for plotting. TablePrinter collects rows as strings
// and right-pads columns on Print().

#ifndef CROWDTOPK_UTIL_TABLE_H_
#define CROWDTOPK_UTIL_TABLE_H_

#include <cstdio>
#include <string>
#include <vector>

namespace crowdtopk::util {

class TablePrinter {
 public:
  // `title` is printed above the table; may be empty.
  explicit TablePrinter(std::string title) : title_(std::move(title)) {}

  // Sets the header row. Must be called before AddRow.
  void SetHeader(std::vector<std::string> header);

  // Appends a data row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  // Renders the aligned table to `out` (defaults to stdout).
  void Print(std::FILE* out = stdout) const;

  // Writes the table as CSV to `path`. Returns false on I/O failure.
  bool WriteCsv(const std::string& path) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double with `digits` significant decimal places, trimming wide
// scientific noise (used for table cells).
std::string FormatDouble(double value, int digits = 1);

// Appends printf-style `format` to *out, however long the result.
void AppendFormat(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace crowdtopk::util

#endif  // CROWDTOPK_UTIL_TABLE_H_
