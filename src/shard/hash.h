// Deterministic shard placement (docs/SHARDING.md).
//
// The router places every query on a shard by hashing its placement key —
// (cache universe, dataset name, algorithm name) — so queries that could
// share cached judgments land on the same shard. Placement is
// highest-random-weight (rendezvous) hashing: each shard's weight for a
// key is SplitSeed(fingerprint(key), shard), and shards are ranked by
// descending weight. Adding or removing a shard only moves the keys whose
// top-ranked shard changed (~1/K of them); every other key keeps its
// placement, which is what keeps shard-local caches warm across resizes.
//
// Ranking is a pure function of (key, shard count) — no state, no
// randomness — so routing is byte-reproducible across runs and across
// processes.

#ifndef CROWDTOPK_SHARD_HASH_H_
#define CROWDTOPK_SHARD_HASH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace crowdtopk::shard {

// What placement hashes on. The universe id — not the Dataset pointer —
// so in-process and remote routing agree, and so subset datasets that
// share a universe co-locate with their parent's queries.
struct PlacementKey {
  int64_t universe = 0;
  std::string dataset;
  std::string algo;
};

// Stable 64-bit fingerprint of `key` (FNV-1a over a canonical encoding).
uint64_t KeyFingerprint(const PlacementKey& key);

// Rendezvous weight of `key` on `shard`; pure function, higher wins.
uint64_t RendezvousWeight(const PlacementKey& key, int64_t shard);

// Shard ids [0, shards) in routing-preference order, best first. The
// router dispatches to the first *healthy* entry; failover walks down the
// same list, so re-dispatch targets are as deterministic as the primary.
std::vector<int64_t> RankShards(const PlacementKey& key, int64_t shards);

}  // namespace crowdtopk::shard

#endif  // CROWDTOPK_SHARD_HASH_H_
