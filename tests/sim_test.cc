// Tests for the deterministic simulation harness (src/sim,
// docs/SIMULATION.md): episode spec round-trip and normalisation, the
// loopback wire transport, a pinned seed-sweep regression, targeted chaos
// episodes (torn WAL tail, transitive cache reuse under worker faults,
// drain and idle timeout on simulated time), shrinking, and the mutation
// acceptance checks proving the harness catches injected determinism bugs.

#include <string>
#include <thread>
#include <vector>

#include "baselines/heap_sort.h"
#include "baselines/quick_select.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "judgment/comparison.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/arrival.h"
#include "serve/query_service.h"
#include "shard/router_engine.h"
#include "sim/chaos.h"
#include "sim/environment.h"
#include "sim/harness.h"
#include "sim/loopback.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/status.h"

namespace crowdtopk::sim {
namespace {

std::string Scratch(const std::string& leaf) {
  return ::testing::TempDir() + "crowdtopk_sim_test_" + leaf;
}

// The network server's engine: the router at its default K = 1.
std::unique_ptr<net::Engine> RouterEngine(const net::ServerOptions& options,
                                          std::function<void()> wake) {
  return std::make_unique<shard::RouterEngine>(
      options, shard::RouterEngineConfig(), std::move(wake));
}

// ----- episode spec --------------------------------------------------------

// The spec is the shrink/replay currency: every derived episode must
// survive ToSpec -> EpisodeFromSpec -> ToSpec byte-identically, or a
// printed repro line would replay a different episode than the one that
// failed.
TEST(ChaosSpecTest, SpecRoundTripsDerivedEpisodes) {
  for (uint64_t i = 0; i < 16; ++i) {
    const Episode e = DeriveEpisode(util::SplitSeed(20170514, i));
    const std::string spec = ToSpec(e);
    const util::StatusOr<Episode> parsed = EpisodeFromSpec(spec);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(ToSpec(parsed.value()), spec) << "seed index " << i;
  }
}

TEST(ChaosSpecTest, MalformedSpecsAreRejected) {
  EXPECT_FALSE(EpisodeFromSpec("nonsense").ok());
  EXPECT_FALSE(EpisodeFromSpec("seed=1,notaknob=2").ok());
  EXPECT_FALSE(EpisodeFromSpec("seed=banana").ok());
}

// DeriveEpisode output is already in range, so normalisation of a derived
// episode is the identity; hand-edited specs get clamped into the ranges
// the stack accepts.
TEST(ChaosSpecTest, NormalizeClampsHandEditedEpisodes) {
  const Episode derived = DeriveEpisode(7);
  EXPECT_EQ(ToSpec(NormalizeEpisode(derived)), ToSpec(derived));

  Episode wild = derived;
  wild.items = 100000;
  wild.k = 100001;  // must end up below items after both clamps
  wild.queries = -3;
  wild.jobs_b = 0;
  const Episode clamped = NormalizeEpisode(wild);
  EXPECT_LE(clamped.items, 64);
  EXPECT_GE(clamped.k, 1);
  EXPECT_LT(clamped.k, clamped.items);
  EXPECT_GE(clamped.queries, 1);
  EXPECT_GE(clamped.jobs_b, 1);
}

// ----- loopback wire transport --------------------------------------------

TEST(LoopbackTest, SeededDeliveryReassemblesEveryStream) {
  const FramedStream stream = FrameStream(SampleMessages(99, 16));
  ASSERT_EQ(stream.payloads.size(), 16u);
  for (uint64_t split = 0; split < 8; ++split) {
    const Delivery d = DeliverByteStream(stream.bytes, split);
    EXPECT_FALSE(d.corrupt);
    EXPECT_FALSE(d.oversized);
    EXPECT_EQ(d.payloads, stream.payloads) << "split seed " << split;
  }
}

TEST(LoopbackTest, CorruptionOperatorsHitTheirClassifications) {
  // Bit flip inside frame 3's CRC region: the reader must stop at kCorrupt
  // having delivered exactly the frames before the mangled one.
  FramedStream flipped = FrameStream(SampleMessages(7, 8));
  FlipBit(&flipped, 3, 11);
  Delivery d = DeliverByteStream(flipped.bytes, 1);
  EXPECT_TRUE(d.corrupt);
  ASSERT_EQ(d.payloads.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(d.payloads[i], flipped.payloads[i]);

  // Truncated tail: no terminal error, just the surviving prefix.
  FramedStream torn = FrameStream(SampleMessages(7, 8));
  TruncateTail(&torn, 5);
  d = DeliverByteStream(torn.bytes, 1);
  EXPECT_FALSE(d.corrupt);
  EXPECT_FALSE(d.oversized);
  EXPECT_EQ(d.payloads, torn.payloads);  // TruncateTail pops the lost payload

  // Inflated length prefix: classified kOversized before the bogus length
  // is trusted.
  FramedStream inflated = FrameStream(SampleMessages(7, 8));
  InflateLength(&inflated, 2);
  d = DeliverByteStream(inflated.bytes, 1);
  EXPECT_TRUE(d.oversized);
  EXPECT_EQ(d.payloads.size(), 2u);
}

// ----- seed sweep regression ----------------------------------------------

// A slice of the CI sweep (tools/crowdtopk_sim --seeds 64) pinned to the
// default master seed: episode i is DeriveEpisode(SplitSeed(master, i)), so
// this covers exactly the first episodes CI replays. Any violation here is
// a real cross-layer determinism regression, reproducible with the spec the
// failure message carries.
TEST(SimHarnessTest, PinnedSeedSweepIsClean) {
  const SweepResult result = SweepSeeds(20170514, 6, Scratch("sweep"));
  EXPECT_EQ(result.episodes_run, 6);
  for (const SweepFailure& failure : result.failures) {
    ADD_FAILURE() << "episode " << failure.index << " spec "
                  << ToSpec(failure.episode) << " violated: "
                  << failure.violations[0].invariant << ": "
                  << failure.violations[0].detail;
  }
}

// ----- targeted episodes ---------------------------------------------------

// Torn WAL tail: crash at barrier 2, cut 9 bytes off the newest WAL
// segment, resume. Recovery must degrade gracefully to the last intact
// barrier and still reproduce the cold run bit-identically.
TEST(SimHarnessTest, TornWalTailRecoveryHoldsInvariants) {
  Episode e = DeriveEpisode(1);  // cache+persist episode, no value faults
  ASSERT_TRUE(e.persist_enabled);
  e.halt_after_barrier = 2;
  e.torn_tail_bytes = 9;
  const std::vector<Violation> violations =
      RunEpisode(e, Scratch("torn_tail"));
  for (const Violation& v : violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

// Transitive cache reuse under worker faults: spammy workers answer, the
// cache composes single-hop inferred verdicts, and the serving layer must
// still satisfy queries. Asserts the scenario actually exercises the
// transitive path (inferred hits happen) instead of vacuously passing.
TEST(SimHarnessTest, TransitiveCacheHitUnderFault) {
  Episode e = DeriveEpisode(1);
  e.cache_enabled = true;
  e.cache_capacity = -1;
  e.transitivity = true;
  e.spammer_fraction = 0.1;
  e.queries = 6;
  const std::vector<Violation> violations =
      RunEpisode(e, Scratch("transitive"));
  for (const Violation& v : violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }

  // Direct replay through the serving stack to observe the inferred
  // counter the harness only checks for soundness. Transitive composition
  // is alpha-gated (alpha_ab + alpha_bc <= alpha_query), so same-alpha
  // queries can never compose: tight-alpha queries populate the cache
  // first, then loose-alpha queries arrive whose missing pairs the cache
  // may answer through a cached single hop.
  const auto dataset = MakeEpisodeDataset(e, 42);
  judgment::ComparisonOptions tight_options;
  tight_options.alpha = 0.01;
  tight_options.budget = 500;
  judgment::ComparisonOptions loose_options;
  loose_options.alpha = 0.05;
  loose_options.budget = 500;
  baselines::HeapSortTopK tight_heap(tight_options);
  baselines::QuickSelectTopK tight_quick(tight_options);
  baselines::HeapSortTopK loose_heap(loose_options);
  baselines::QuickSelectTopK loose_quick(loose_options);

  const int64_t tight_queries = 6, loose_queries = 4;
  std::vector<double> arrivals;
  std::vector<serve::QueryRequest> requests(tight_queries + loose_queries);
  for (size_t q = 0; q < requests.size(); ++q) {
    const bool tight = q < static_cast<size_t>(tight_queries);
    core::TopKAlgorithm* tight_algos[] = {&tight_heap, &tight_quick};
    core::TopKAlgorithm* loose_algos[] = {&loose_heap, &loose_quick};
    requests[q].algorithm = tight ? tight_algos[q % 2] : loose_algos[q % 2];
    requests[q].dataset = dataset.get();
    requests[q].k = e.k;
    arrivals.push_back(static_cast<double>(q));
  }
  serve::ServeOptions options;
  options.seed = 42;
  options.max_inflight = 1;  // serialize: every query sees all prior commits
  options.cache.enabled = true;
  options.cache.transitivity = true;
  serve::QueryService service(options);
  service.Replay(requests, arrivals);
  const cache::CacheStats stats = service.cache_stats();
  EXPECT_GT(stats.hits + stats.topups + stats.inferred, 0)
      << "cache never reused anything — the scenario is vacuous";
  EXPECT_GT(stats.inferred, 0)
      << "no transitively inferred verdict served; the transitive path "
         "was not exercised";
}

// Shard scatter + failover: the episode's trace routed over four local
// shards must merge to the 1-shard pure-column table byte-for-byte, and
// killing the first query's primary shard on its first sub-batch must
// lose no query while keeping re-dispatch and re-purchase bounded. The
// kill branch asserts internally that the injected death actually fired,
// so this cannot pass vacuously.
TEST(SimHarnessTest, ShardScatterAndFailoverHoldInvariants) {
  Episode e = DeriveEpisode(1);
  e.shards = 4;
  e.shard_kill = true;
  std::vector<Violation> violations;
  CheckShardScatter(NormalizeEpisode(e), &violations);
  for (const Violation& v : violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

// ----- simulated time through the network stack ----------------------------

// Drain during in-flight work under an injected SimClock: the wall clock
// never drives any timeout, yet the accepted query completes and the drain
// returns. This is the script-controlled-time version of net_test's drain
// coverage.
TEST(SimNetTest, DrainCompletesInFlightUnderSimClock) {
  SimEnvironment env(20170514);
  net::ServerOptions options;
  options.port = 0;
  options.clock = env.clock();
  options.engine_factory = RouterEngine;
  options.dataset_factory = [](const std::string& name,
                               uint64_t) -> std::unique_ptr<data::Dataset> {
    if (name != "tiny") return nullptr;
    return data::MakeUniformLadder(12, 2.0, 0.5);
  };
  net::Server server(options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serve_thread([&server] { server.Serve(); });

  net::ClientOptions client_options;
  client_options.port = server.port();
  client_options.clock = env.clock();
  client_options.max_retries = 0;
  net::Client client(client_options);
  ASSERT_TRUE(client.Connect().ok());

  net::SubmitQuery query;
  query.dataset = "tiny";
  query.k = 3;
  query.algo = "spr";
  const util::StatusOr<int64_t> id = client.Submit(query);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  server.RequestDrain();
  // Simulated time never advances past any deadline; the in-flight query
  // must still complete and be flushed before Serve() returns.
  const util::StatusOr<net::Result> result = client.AwaitResult(*id);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->items.size(), 3u);
  serve_thread.join();
}

// Idle-timeout on simulated seconds: a connection with no traffic is
// closed only when the *script* advances the clock past idle_timeout_ms —
// machine load can neither fire the timeout early nor hold it open.
TEST(SimNetTest, IdleTimeoutFiresOnSimulatedTimeOnly) {
  SimEnvironment env(20170514);
  net::ServerOptions options;
  options.port = 0;
  options.idle_timeout_ms = 5000;
  options.clock = env.clock();
  options.engine_factory = RouterEngine;
  net::Server server(options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serve_thread([&server] { server.Serve(); });

  net::ClientOptions idle_options;
  idle_options.port = server.port();
  idle_options.clock = env.clock();
  idle_options.max_retries = 0;
  net::Client idler(idle_options);
  ASSERT_TRUE(idler.Connect().ok());
  EXPECT_EQ(server.Stats().idle_closed, 0);

  env.AdvanceMillis(6000);  // past idle_timeout_ms, in simulated time
  // The event loop observes simulated-time advances on its short wall
  // tick; wait (bounded, wall time) for the close to land.
  for (int tick = 0; tick < 500 && server.Stats().idle_closed == 0; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.Stats().idle_closed, 1);

  server.RequestDrain();
  serve_thread.join();
}

// ----- mutation acceptance -------------------------------------------------

// The harness itself is under test here: deliberately broken determinism
// MUST produce violations, or a clean sweep proves nothing. Each mutation
// targets a different invariant family; the seeds are pinned to episodes
// known to expose them (docs/SIMULATION.md).

TEST(SimMutationTest, SeedDriftIsCaught) {
  Episode e = DeriveEpisode(1);
  e.mutation = "seed-drift";  // jobs_b replays under a perturbed seed
  const std::vector<Violation> violations =
      RunEpisode(e, Scratch("mut_drift"));
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].invariant, "jobs-bit-identity");
}

TEST(SimMutationTest, WireFlipIsCaught) {
  Episode e = DeriveEpisode(1);
  ASSERT_GE(e.wire_trials, 1);
  e.mutation = "wire-flip";  // undeclared bit flip in a clean wire trial
  const std::vector<Violation> violations =
      RunEpisode(e, Scratch("mut_wire"));
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].invariant, "wire-reassembly-identity");
}

TEST(SimMutationTest, CacheLeakIsCaught) {
  // This episode's workload overlaps pairs across queries, so one leaked
  // cache slot in the capacity-0 control run changes the purchase stream.
  Episode e = DeriveEpisode(13602764539300740607ULL);
  ASSERT_TRUE(e.cache_enabled);
  e.mutation = "cache-leak";
  const std::vector<Violation> violations =
      RunEpisode(e, Scratch("mut_leak"));
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].invariant, "cache-capacity0-identity");
}

// Shrinking a failing episode must preserve the failure while only ever
// disabling chaos dimensions or shrinking the workload — the minimal spec
// is the one a human debugs.
TEST(SimMutationTest, ShrinkKeepsFailureAndNeverGrows) {
  Episode e = DeriveEpisode(1);
  e.mutation = "seed-drift";
  std::vector<Violation> violations;
  const Episode minimal = ShrinkEpisode(e, Scratch("shrink"), &violations);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].invariant, "jobs-bit-identity");
  EXPECT_LE(minimal.queries, e.queries);
  EXPECT_LE(minimal.items, e.items);
  EXPECT_EQ(minimal.mutation, "seed-drift");  // the bug is not shrunk away
  // The replay line embeds the full spec of the minimal episode.
  EXPECT_NE(ReplayCommand(minimal).find(ToSpec(minimal)), std::string::npos);
}

}  // namespace
}  // namespace crowdtopk::sim
