#include "core/interval_ranking.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/student_t.h"
#include "util/check.h"

namespace crowdtopk::core {

namespace {

struct Interval {
  ItemId item = -1;
  double mean = 0.0;
  double half_width = std::numeric_limits<double>::infinity();
  double lo() const { return mean - half_width; }
  double hi() const { return mean + half_width; }
};

Interval ComputeInterval(ItemId o, ItemId reference,
                         judgment::ComparisonCache* cache) {
  Interval interval;
  interval.item = o;
  const int64_t n = cache->Workload(o, reference);
  if (n < 2) return interval;
  interval.mean = cache->EstimatedMean(o, reference);
  const double sd = cache->EstimatedStdDev(o, reference);
  interval.half_width =
      stats::TCritical(judgment::EffectiveAlpha(cache->options()), n - 1) *
      sd / std::sqrt(static_cast<double>(n));
  return interval;
}

}  // namespace

IntervalRankingResult RefineByIntervals(const std::vector<ItemId>& candidates,
                                        ItemId reference,
                                        int64_t refinement_budget,
                                        judgment::ComparisonCache* cache,
                                        crowd::CrowdPlatform* platform) {
  CROWDTOPK_CHECK_GE(refinement_budget, 0);
  IntervalRankingResult result;
  if (candidates.empty()) {
    result.fully_certified = true;
    return result;
  }
  const int64_t batch = cache->options().batch_size;
  const int64_t cost_before = platform->total_microtasks();

  // Cold-start any candidate that was never compared to the reference.
  for (ItemId o : candidates) {
    CROWDTOPK_CHECK_NE(o, reference);
    auto* session = cache->GetSession(o, reference);
    if (session->workload() == 0 && !session->Finished()) {
      session->Step(platform, batch);
      platform->NextRound();
    }
  }

  std::vector<Interval> intervals;
  intervals.reserve(candidates.size());
  for (ItemId o : candidates) {
    intervals.push_back(ComputeInterval(o, reference, cache));
  }

  int64_t spent = platform->total_microtasks() - cost_before;
  while (true) {
    // Order by mean, best first.
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                if (a.mean != b.mean) return a.mean > b.mean;
                return a.item < b.item;
              });
    // Find the most-overlapping adjacent pair.
    double worst_overlap = 0.0;
    size_t worst_index = intervals.size();
    int64_t certified = 0;
    for (size_t p = 0; p + 1 < intervals.size(); ++p) {
      const double overlap = intervals[p + 1].hi() - intervals[p].lo();
      if (overlap <= 0.0) {
        ++certified;
      } else if (overlap > worst_overlap) {
        worst_overlap = overlap;
        worst_index = p;
      }
    }
    result.certified_adjacent_pairs = certified;
    if (worst_index == intervals.size()) {
      result.fully_certified = true;
      break;
    }
    if (spent >= refinement_budget) break;

    // Tighten the wider endpoint of the blocking pair.
    Interval& target =
        intervals[worst_index].half_width >= intervals[worst_index + 1].half_width
            ? intervals[worst_index]
            : intervals[worst_index + 1];
    auto* session = cache->GetSession(target.item, reference);
    const int64_t to_buy =
        std::min(batch, refinement_budget - spent);
    session->RefineWithExtraSamples(platform, to_buy);
    platform->NextRound();
    spent += to_buy;
    target = ComputeInterval(target.item, reference, cache);
  }

  result.refinement_cost = platform->total_microtasks() - cost_before;
  result.ranked.reserve(intervals.size());
  for (const Interval& interval : intervals) {
    result.ranked.push_back(interval.item);
  }
  return result;
}

}  // namespace crowdtopk::core
