#include "util/table.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "util/check.h"

namespace crowdtopk::util {

void TablePrinter::SetHeader(std::vector<std::string> header) {
  CROWDTOPK_CHECK(rows_.empty());
  header_ = std::move(header);
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  CROWDTOPK_CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

void TablePrinter::Print(std::FILE* out) const {
  std::vector<size_t> widths(header_.size(), 0);
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  if (!title_.empty()) std::fprintf(out, "=== %s ===\n", title_.c_str());
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::fprintf(out, "%-*s%s", static_cast<int>(widths[c]), row[c].c_str(),
                   c + 1 == row.size() ? "\n" : "  ");
    }
  };
  print_row(header_);
  size_t total = header_.size() > 0 ? 2 * (header_.size() - 1) : 0;
  for (size_t w : widths) total += w;
  std::string rule(total, '-');
  std::fprintf(out, "%s\n", rule.c_str());
  for (const auto& row : rows_) print_row(row);
  std::fflush(out);
}

namespace {
std::string CsvEscape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string escaped = "\"";
  for (char ch : cell) {
    if (ch == '"') escaped += '"';
    escaped += ch;
  }
  escaped += '"';
  return escaped;
}
}  // namespace

bool TablePrinter::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto write_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::fprintf(f, "%s%s", CsvEscape(row[c]).c_str(),
                   c + 1 == row.size() ? "\n" : ",");
    }
  };
  write_row(header_);
  for (const auto& row : rows_) write_row(row);
  std::fclose(f);
  return true;
}

std::string FormatDouble(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

void AppendFormat(std::string* out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  CROWDTOPK_CHECK_GE(needed, 0);
  std::string line(static_cast<size_t>(needed), '\0');
  std::vsnprintf(line.data(), static_cast<size_t>(needed) + 1, format, args);
  va_end(args);
  out->append(line);
}

}  // namespace crowdtopk::util
