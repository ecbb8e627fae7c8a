#include "baselines/registry.h"

#include "baselines/heap_sort.h"
#include "baselines/quick_select.h"
#include "baselines/tournament_tree.h"
#include "core/spr.h"

namespace crowdtopk::baselines {

std::unique_ptr<core::TopKAlgorithm> MakeAlgorithm(
    const std::string& name, const judgment::ComparisonOptions& comparison) {
  if (name == "spr") {
    core::SprOptions options;
    options.comparison = comparison;
    return std::make_unique<core::Spr>(options);
  }
  if (name == "tourtree") return std::make_unique<TournamentTree>(comparison);
  if (name == "heapsort") return std::make_unique<HeapSortTopK>(comparison);
  if (name == "quickselect") {
    return std::make_unique<QuickSelectTopK>(comparison);
  }
  return nullptr;
}

}  // namespace crowdtopk::baselines
