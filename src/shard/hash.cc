#include "shard/hash.h"

#include <algorithm>

#include "util/check.h"
#include "util/crc32.h"
#include "util/random.h"

namespace crowdtopk::shard {

uint64_t KeyFingerprint(const PlacementKey& key) {
  // Length-prefixed field encoding: ("ab", "c") and ("a", "bc") must not
  // collide, and the universe id participates as raw bytes.
  uint64_t h = util::Fnv1a64(&key.universe, sizeof(key.universe));
  const uint64_t dataset_len = key.dataset.size();
  h = util::Fnv1a64(&dataset_len, sizeof(dataset_len), h);
  h = util::Fnv1a64(key.dataset.data(), key.dataset.size(), h);
  const uint64_t algo_len = key.algo.size();
  h = util::Fnv1a64(&algo_len, sizeof(algo_len), h);
  return util::Fnv1a64(key.algo.data(), key.algo.size(), h);
}

uint64_t RendezvousWeight(const PlacementKey& key, int64_t shard) {
  return util::SplitSeed(KeyFingerprint(key),
                         static_cast<uint64_t>(shard));
}

std::vector<int64_t> RankShards(const PlacementKey& key, int64_t shards) {
  CROWDTOPK_CHECK(shards >= 1);
  std::vector<int64_t> order(static_cast<size_t>(shards));
  for (int64_t i = 0; i < shards; ++i) order[static_cast<size_t>(i)] = i;
  std::vector<uint64_t> weight(static_cast<size_t>(shards));
  for (int64_t i = 0; i < shards; ++i) {
    weight[static_cast<size_t>(i)] = RendezvousWeight(key, i);
  }
  // Descending weight; shard id breaks (astronomically unlikely) ties so
  // the order is total.
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const uint64_t wa = weight[static_cast<size_t>(a)];
    const uint64_t wb = weight[static_cast<size_t>(b)];
    if (wa != wb) return wa > wb;
    return a < b;
  });
  return order;
}

}  // namespace crowdtopk::shard
