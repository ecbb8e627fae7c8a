// The algorithm registry: net's default factory, crowdtopk_serve, the
// simulation and the example CLI all build their top-k algorithms by name
// through this one function.

#ifndef CROWDTOPK_BASELINES_REGISTRY_H_
#define CROWDTOPK_BASELINES_REGISTRY_H_

#include <memory>
#include <string>

#include "core/topk_algorithm.h"
#include "judgment/comparison.h"

namespace crowdtopk::baselines {

// Builds "spr", "tourtree", "heapsort" or "quickselect" under `comparison`;
// nullptr for any other name, so each caller decides how a bad name fails.
std::unique_ptr<core::TopKAlgorithm> MakeAlgorithm(
    const std::string& name, const judgment::ComparisonOptions& comparison);

}  // namespace crowdtopk::baselines

#endif  // CROWDTOPK_BASELINES_REGISTRY_H_
