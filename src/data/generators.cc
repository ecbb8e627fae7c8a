#include "data/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "stats/normal.h"
#include "util/check.h"
#include "util/random.h"

namespace crowdtopk::data {

namespace {

// Ten rating bins 1..10 (IMDb / Book-Crossing style).
std::vector<double> TenBins() {
  std::vector<double> bins(10);
  std::iota(bins.begin(), bins.end(), 1.0);
  return bins;
}

// Probability mass of N(mean, stddev^2) truncated-and-discretised onto the
// integer bins 1..10, with small polarised spikes at the extreme bins (real
// rating histograms have "love it / hate it" bumps).
std::vector<double> DiscretisedBellMass(double mean, double stddev,
                                        double spike_low, double spike_high) {
  std::vector<double> mass(10, 0.0);
  double total = 0.0;
  for (int b = 0; b < 10; ++b) {
    const double value = static_cast<double>(b + 1);
    const double lo = (value - 0.5 - mean) / stddev;
    const double hi = (value + 0.5 - mean) / stddev;
    mass[b] = stats::NormalCdf(hi) - stats::NormalCdf(lo);
    total += mass[b];
  }
  CROWDTOPK_CHECK_GT(total, 0.0);
  for (double& m : mass) m /= total;
  // Blend in the edge spikes.
  const double keep = 1.0 - spike_low - spike_high;
  for (double& m : mass) m *= keep;
  mass.front() += spike_low;
  mass.back() += spike_high;
  return mass;
}

// Draws `votes` ratings from `mass` and returns the empirical counts.
// For very large vote counts the histogram converges to the expectation, so
// above the threshold we skip the sampling and use expected counts directly.
std::vector<double> SampleHistogramCounts(const std::vector<double>& mass,
                                          double votes, util::Rng* rng) {
  std::vector<double> counts(mass.size(), 0.0);
  constexpr double kExactThreshold = 20000.0;
  if (votes >= kExactThreshold) {
    for (size_t b = 0; b < mass.size(); ++b) counts[b] = mass[b] * votes;
    return counts;
  }
  const int64_t draws = static_cast<int64_t>(votes);
  std::vector<double> cumulative(mass.size());
  double acc = 0.0;
  for (size_t b = 0; b < mass.size(); ++b) {
    acc += mass[b];
    cumulative[b] = acc;
  }
  for (int64_t d = 0; d < draws; ++d) {
    const double u = rng->Uniform() * acc;
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), u);
    const size_t bin = std::min<size_t>(
        static_cast<size_t>(it - cumulative.begin()), mass.size() - 1);
    counts[bin] += 1.0;
  }
  // Guard against empty histograms for tiny vote counts.
  bool any = false;
  for (double c : counts) any = any || c > 0.0;
  if (!any) counts[mass.size() / 2] = 1.0;
  return counts;
}

}  // namespace

std::unique_ptr<HistogramDataset> MakeImdbLike(uint64_t seed) {
  util::Rng rng(seed ^ 0x1adb00ULL);
  constexpr int kNumItems = 1225;  // Table 5: movies with >= 100,000 votes
  std::vector<VoteHistogram> histograms;
  histograms.reserve(kNumItems);
  for (int i = 0; i < kNumItems; ++i) {
    // Popular-movie means cluster around ~7 with a ~1.2 spread, plus a thin
    // crust of "classics" clearly above the pack (real IMDb's top is sparse:
    // Shawshank, Godfather, ... separated by ~0.05-0.1 weighted-rank
    // points). Classics also show more rating consensus (smaller spread).
    const bool classic = rng.Bernoulli(0.025);
    const double mean =
        classic ? std::min(8.5 + std::fabs(rng.Gaussian(0.0, 0.55)), 9.7)
                : std::clamp(rng.Gaussian(7.0, 1.2), 2.0, 9.3);
    const double stddev =
        classic ? rng.Uniform(0.8, 1.2) : rng.Uniform(0.9, 1.6);
    const double spike_low = rng.Uniform(0.005, 0.03);
    const double spike_high = rng.Uniform(0.01, 0.05);
    // Vote counts: lognormal above the 100k filtering threshold; classics
    // are heavily voted (millions of votes), so the weighted-rank shrinkage
    // barely moves them and their mean-order separation survives in the
    // ground truth.
    const double votes =
        (classic ? 800000.0 : 100000.0) *
        std::exp(std::fabs(rng.Gaussian(0.0, 0.9)));
    VoteHistogram histogram;
    histogram.counts = SampleHistogramCounts(
        DiscretisedBellMass(mean, stddev, spike_low, spike_high), votes,
        &rng);
    histograms.push_back(std::move(histogram));
  }
  HistogramDataset::Options options;
  options.bin_values = TenBins();
  options.k_constant = 25000.0;  // IMDb weighted-rank constants (Section 6.1)
  options.c_constant = 6.9;
  return std::make_unique<HistogramDataset>("IMDb", std::move(histograms),
                                            std::move(options));
}

std::unique_ptr<HistogramDataset> MakeBookLike(uint64_t seed) {
  util::Rng rng(seed ^ 0x2b00c5ULL);
  constexpr int kNumItems = 537;  // Table 5: books with >= 50 votes
  std::vector<VoteHistogram> histograms;
  histograms.reserve(kNumItems);
  for (int i = 0; i < kNumItems; ++i) {
    const double mean = std::clamp(rng.Gaussian(7.2, 1.1), 1.5, 9.8);
    const double stddev = rng.Uniform(1.5, 2.8);
    const double spike_low = rng.Uniform(0.005, 0.04);
    const double spike_high = rng.Uniform(0.01, 0.06);
    // Few votes: histograms are genuinely noisy, like Book-Crossing.
    const double votes = 50.0 * std::exp(std::fabs(rng.Gaussian(0.0, 1.0)));
    VoteHistogram histogram;
    histogram.counts = SampleHistogramCounts(
        DiscretisedBellMass(mean, stddev, spike_low, spike_high), votes,
        &rng);
    histograms.push_back(std::move(histogram));
  }
  HistogramDataset::Options options;
  options.bin_values = TenBins();
  options.k_constant = 0.0;  // plain histogram mean (Section 6.1, Book)
  options.c_constant = 0.0;
  return std::make_unique<HistogramDataset>("Book", std::move(histograms),
                                            std::move(options));
}

std::unique_ptr<UserMatrixDataset> MakeJesterLike(uint64_t seed) {
  util::Rng rng(seed ^ 0x3e57e2ULL);
  constexpr int kNumItems = 100;   // Table 5: 100 jokes
  constexpr int kNumUsers = 2000;  // users who rated all the jokes
  // Latent joke quality on Jester's [-10, 10] scale.
  std::vector<double> quality(kNumItems);
  for (double& q : quality) q = std::clamp(rng.Gaussian(0.8, 3.2), -9.0, 9.0);
  std::vector<std::vector<double>> ratings(kNumUsers,
                                           std::vector<double>(kNumItems));
  for (int u = 0; u < kNumUsers; ++u) {
    const double scale = rng.Uniform(0.5, 1.5);  // humour sensitivity
    const double bias = rng.Gaussian(0.0, 1.5);  // generosity offset
    for (int i = 0; i < kNumItems; ++i) {
      const double noise = rng.Gaussian(0.0, 3.0);  // taste is noisy
      ratings[u][i] =
          std::clamp(scale * quality[i] + bias + noise, -10.0, 10.0);
    }
  }
  return std::make_unique<UserMatrixDataset>("Jester", std::move(ratings),
                                             -10.0, 10.0);
}

std::unique_ptr<PairRecordDataset> MakePhotoLike(uint64_t seed) {
  util::Rng rng(seed ^ 0x4f070ULL);
  constexpr int kNumItems = 200;       // Table 5: 200 campus photos
  constexpr int kRecordsPerPair = 12;  // ">= 10 judgment records per pair"
  constexpr int kGradesPerItem = 30;
  // Latent photo appeal.
  std::vector<double> scores(kNumItems);
  for (double& s : scores) s = rng.Gaussian(0.0, 1.0);

  // Map a raw preference onto the 8-point Likert scale used on CrowdFlower:
  // levels 0..7 -> v in {-1, -5/7, ..., +5/7, +1}; no neutral level.
  auto likert = [](double raw) {
    const double u = std::clamp(raw / 2.5, -1.0, 1.0);
    const int level =
        std::clamp(static_cast<int>(std::lround((u + 1.0) / 2.0 * 7.0)), 0, 7);
    return 2.0 * static_cast<double>(level) / 7.0 - 1.0;
  };

  std::vector<std::vector<std::vector<double>>> records(kNumItems);
  for (int i = 0; i < kNumItems; ++i) {
    records[i].resize(kNumItems - i - 1);
    for (int j = i + 1; j < kNumItems; ++j) {
      auto& bag = records[i][j - i - 1];
      bag.reserve(kRecordsPerPair);
      for (int r = 0; r < kRecordsPerPair; ++r) {
        const double raw = scores[i] - scores[j] + rng.Gaussian(0.0, 1.0);
        bag.push_back(likert(raw));
      }
    }
  }
  std::vector<std::vector<double>> graded(kNumItems);
  for (int i = 0; i < kNumItems; ++i) {
    graded[i].reserve(kGradesPerItem);
    for (int g = 0; g < kGradesPerItem; ++g) {
      const double raw = scores[i] + rng.Gaussian(0.0, 1.0);
      graded[i].push_back(std::clamp((raw + 3.0) / 6.0, 0.0, 1.0));
    }
  }
  return std::make_unique<PairRecordDataset>(
      "Photo", std::move(scores), std::move(records), std::move(graded));
}

std::unique_ptr<GaussianDataset> MakePeopleAgeLike(uint64_t seed) {
  util::Rng rng(seed ^ 0x5a6eULL);
  constexpr int kNumItems = 100;  // photos of women aged 1..100
  // Score = youth; the query "10 youngest" is then a plain top-k query.
  std::vector<double> scores(kNumItems);
  for (int i = 0; i < kNumItems; ++i) {
    scores[i] = 101.0 - static_cast<double>(i + 1);  // item i has age i+1
  }
  (void)rng;  // ages are fixed; only judgments are random
  // Humans estimate adult ages within roughly +-6 years; one preference
  // judgment differences two independent estimates (stddev ~ 6 * sqrt(2)).
  return std::make_unique<GaussianDataset>("PeopleAge", std::move(scores),
                                           /*noise_stddev=*/8.5,
                                           /*score_scale=*/100.0);
}

std::unique_ptr<GaussianDataset> MakeUniformLadder(int64_t n, double gap,
                                                   double noise_stddev) {
  CROWDTOPK_CHECK_GE(n, 1);
  std::vector<double> scores(n);
  for (int64_t i = 0; i < n; ++i) scores[i] = static_cast<double>(i) * gap;
  const double span = std::max(gap * static_cast<double>(n), 1.0);
  return std::make_unique<GaussianDataset>("Ladder", std::move(scores),
                                           noise_stddev, span);
}

std::unique_ptr<Dataset> MakeByName(const std::string& name, uint64_t seed) {
  if (name == "imdb") return MakeImdbLike(seed);
  if (name == "book") return MakeBookLike(seed);
  if (name == "jester") return MakeJesterLike(seed);
  if (name == "photo") return MakePhotoLike(seed);
  if (name == "peopleage") return MakePeopleAgeLike(seed);
  return nullptr;
}

}  // namespace crowdtopk::data
