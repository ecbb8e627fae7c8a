#include "data/io.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/check.h"

namespace crowdtopk::data {

namespace {

// Minimal CSV splitting (no quoting: the formats are purely numeric).
std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char ch : line) {
    if (ch == ',') {
      fields.push_back(current);
      current.clear();
    } else if (ch != '\r' && ch != '\n') {
      current += ch;
    }
  }
  fields.push_back(current);
  return fields;
}

util::StatusOr<std::vector<std::string>> ReadLines(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return util::Status::NotFound("cannot open " + path);
  }
  std::vector<std::string> lines;
  std::string current;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), f) != nullptr) {
    current += buffer;
    if (!current.empty() && current.back() == '\n') {
      current.pop_back();
      lines.push_back(current);
      current.clear();
    }
  }
  if (!current.empty()) lines.push_back(current);
  std::fclose(f);
  return lines;
}

// False on anything but a whole finite number (nan and inf included).
bool ParseDouble(const std::string& field, double* out) {
  char* end = nullptr;
  *out = std::strtod(field.c_str(), &end);
  return end != field.c_str() && *end == '\0' && std::isfinite(*out);
}

bool ParseId(const std::string& field, int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(field.c_str(), &end, 10);
  return end != field.c_str() && *end == '\0';
}

bool IsSkippable(const std::string& line) {
  return line.empty() || line[0] == '#';
}

}  // namespace

util::Status SaveHistogramCsv(const HistogramDataset& dataset,
                              const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return util::Status::Internal("cannot write " + path);
  std::fprintf(f, "item_id");
  for (size_t b = 0; b < dataset.bin_values().size(); ++b) {
    std::fprintf(f, ",votes_bin%zu", b + 1);
  }
  std::fprintf(f, "\n");
  for (ItemId i = 0; i < dataset.num_items(); ++i) {
    std::fprintf(f, "%d", i);
    for (double count : dataset.histogram(i).counts) {
      std::fprintf(f, ",%.6g", count);
    }
    std::fprintf(f, "\n");
  }
  std::fclose(f);
  return util::Status::Ok();
}

util::StatusOr<std::unique_ptr<HistogramDataset>> LoadHistogramCsv(
    const std::string& path, std::string dataset_name,
    HistogramDataset::Options options) {
  auto lines = ReadLines(path);
  if (!lines.ok()) return lines.status();
  const size_t bins = options.bin_values.size();
  if (bins < 2) {
    return util::Status::InvalidArgument("need at least 2 bin values");
  }
  std::vector<std::pair<int64_t, VoteHistogram>> rows;
  bool header_skipped = false;
  for (const std::string& line : *lines) {
    if (IsSkippable(line)) continue;
    if (!header_skipped) {
      header_skipped = true;  // first non-comment line is the header
      continue;
    }
    const std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.size() != bins + 1) {
      return util::Status::InvalidArgument("bad column count in: " + line);
    }
    int64_t id = 0;
    if (!ParseId(fields[0], &id) || id < 0) {
      return util::Status::InvalidArgument("bad item id in: " + line);
    }
    VoteHistogram histogram;
    histogram.counts.resize(bins);
    double total = 0.0;
    for (size_t b = 0; b < bins; ++b) {
      if (!ParseDouble(fields[b + 1], &histogram.counts[b]) ||
          histogram.counts[b] < 0) {
        return util::Status::InvalidArgument("bad vote count in: " + line);
      }
      total += histogram.counts[b];
    }
    if (total == 0.0 || !std::isfinite(total)) {  // all-zero or overflowed
      return util::Status::InvalidArgument(
          "votes must sum to a positive finite total in: " + line);
    }
    rows.emplace_back(id, std::move(histogram));
  }
  if (rows.empty()) {
    return util::Status::InvalidArgument("no data rows in " + path);
  }
  std::vector<VoteHistogram> histograms(rows.size());
  std::vector<bool> seen(rows.size(), false);
  for (auto& [id, histogram] : rows) {
    if (id >= static_cast<int64_t>(rows.size()) || seen[id]) {
      return util::Status::InvalidArgument(
          "item ids must be the dense range 0..N-1 exactly once");
    }
    seen[id] = true;
    histograms[id] = std::move(histogram);
  }
  return std::make_unique<HistogramDataset>(
      std::move(dataset_name), std::move(histograms), std::move(options));
}

util::Status SaveScoresCsv(const Dataset& dataset, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return util::Status::Internal("cannot write " + path);
  std::fprintf(f, "item_id,score\n");
  for (ItemId i = 0; i < dataset.num_items(); ++i) {
    std::fprintf(f, "%d,%.17g\n", i, dataset.TrueScore(i));
  }
  std::fclose(f);
  return util::Status::Ok();
}

util::StatusOr<std::vector<double>> LoadScoresCsv(const std::string& path) {
  auto lines = ReadLines(path);
  if (!lines.ok()) return lines.status();
  std::vector<std::pair<int64_t, double>> rows;
  bool header_skipped = false;
  for (const std::string& line : *lines) {
    if (IsSkippable(line)) continue;
    if (!header_skipped) {
      header_skipped = true;
      continue;
    }
    const std::vector<std::string> fields = SplitCsvLine(line);
    int64_t id = 0;
    double score = 0.0;
    if (fields.size() != 2 || !ParseId(fields[0], &id) || id < 0 ||
        !ParseDouble(fields[1], &score)) {
      return util::Status::InvalidArgument("bad score row: " + line);
    }
    rows.emplace_back(id, score);
  }
  if (rows.empty()) {
    return util::Status::InvalidArgument("no data rows in " + path);
  }
  std::vector<double> scores(rows.size(), 0.0);
  std::vector<bool> seen(rows.size(), false);
  for (const auto& [id, score] : rows) {
    if (id >= static_cast<int64_t>(rows.size()) || seen[id]) {
      return util::Status::InvalidArgument(
          "item ids must be the dense range 0..N-1 exactly once");
    }
    seen[id] = true;
    scores[id] = score;
  }
  return scores;
}

util::Status SavePairwiseCsv(const PairRecordDataset& dataset,
                             const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return util::Status::Internal("cannot write " + path);
  std::fprintf(f, "left_id,right_id,preference\n");
  for (ItemId i = 0; i < dataset.num_items(); ++i) {
    for (ItemId j = i + 1; j < dataset.num_items(); ++j) {
      for (double v : dataset.RecordsFor(i, j)) {
        std::fprintf(f, "%d,%d,%.17g\n", i, j, v);
      }
    }
  }
  std::fclose(f);
  return util::Status::Ok();
}

util::StatusOr<std::unique_ptr<PairRecordDataset>> LoadPairwiseCsv(
    const std::string& path, std::string dataset_name,
    std::vector<double> true_scores) {
  auto lines = ReadLines(path);
  if (!lines.ok()) return lines.status();
  const int64_t n = static_cast<int64_t>(true_scores.size());
  if (n < 2) {
    return util::Status::InvalidArgument("need at least 2 item scores");
  }
  std::vector<std::vector<std::vector<double>>> records(n);
  for (int64_t i = 0; i < n; ++i) records[i].resize(n - i - 1);
  bool header_skipped = false;
  for (const std::string& line : *lines) {
    if (IsSkippable(line)) continue;
    if (!header_skipped) {
      header_skipped = true;
      continue;
    }
    const std::vector<std::string> fields = SplitCsvLine(line);
    int64_t left = 0, right = 0;
    double preference = 0.0;
    if (fields.size() != 3 || !ParseId(fields[0], &left) ||
        !ParseId(fields[1], &right) || !ParseDouble(fields[2], &preference)) {
      return util::Status::InvalidArgument("bad judgment row: " + line);
    }
    if (left < 0 || left >= n || right < 0 || right >= n || left == right) {
      return util::Status::InvalidArgument("bad item ids in: " + line);
    }
    if (preference < -1.0 || preference > 1.0) {
      return util::Status::InvalidArgument("preference out of [-1,1]: " +
                                           line);
    }
    const int64_t lo = std::min(left, right);
    const int64_t hi = std::max(left, right);
    records[lo][hi - lo - 1].push_back(left == lo ? preference : -preference);
  }
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      if (records[i][j - i - 1].empty()) {
        return util::Status::InvalidArgument(
            "no records for pair (" + std::to_string(i) + ", " +
            std::to_string(j) + ")");
      }
    }
  }
  return std::make_unique<PairRecordDataset>(
      std::move(dataset_name), std::move(true_scores), std::move(records),
      std::vector<std::vector<double>>{});
}

}  // namespace crowdtopk::data
