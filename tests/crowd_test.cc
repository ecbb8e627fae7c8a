// Tests for the crowd substrate: oracle defaults and platform accounting.

#include <memory>
#include <string>
#include <vector>

#include "crowd/latency_model.h"
#include "crowd/oracle.h"
#include "crowd/platform.h"
#include "crowd/simulator.h"
#include "crowd/types.h"
#include "gtest/gtest.h"
#include "telemetry/recorder.h"
#include "util/random.h"

namespace crowdtopk::crowd {
namespace {

// A deterministic oracle for accounting tests: preference = +0.5 when i < j.
class FixedOracle : public JudgmentOracle {
 public:
  explicit FixedOracle(int64_t n) : n_(n) {}
  int64_t num_items() const override { return n_; }
  double PreferenceJudgment(ItemId i, ItemId j,
                            util::Rng* rng) const override {
    (void)rng;
    return i < j ? 0.5 : -0.5;
  }
  double GradedJudgment(ItemId i, util::Rng* rng) const override {
    (void)rng;
    return static_cast<double>(i) / static_cast<double>(n_);
  }

 private:
  int64_t n_;
};

// An oracle that returns exact ties to exercise the binary fallback.
class AlwaysTieOracle : public JudgmentOracle {
 public:
  int64_t num_items() const override { return 2; }
  double PreferenceJudgment(ItemId, ItemId, util::Rng*) const override {
    return 0.0;
  }
  double GradedJudgment(ItemId, util::Rng*) const override { return 0.5; }
};

TEST(OutcomeTest, ReverseIsInvolutionAndSwaps) {
  EXPECT_EQ(Reverse(ComparisonOutcome::kLeftWins),
            ComparisonOutcome::kRightWins);
  EXPECT_EQ(Reverse(ComparisonOutcome::kRightWins),
            ComparisonOutcome::kLeftWins);
  EXPECT_EQ(Reverse(ComparisonOutcome::kTie), ComparisonOutcome::kTie);
  EXPECT_EQ(Reverse(Reverse(ComparisonOutcome::kLeftWins)),
            ComparisonOutcome::kLeftWins);
}

TEST(OracleTest, DefaultBinaryJudgmentTakesSign) {
  FixedOracle oracle(4);
  util::Rng rng(1);
  EXPECT_EQ(oracle.BinaryJudgment(0, 1, &rng), 1.0);
  EXPECT_EQ(oracle.BinaryJudgment(3, 1, &rng), -1.0);
}

TEST(OracleTest, BinaryJudgmentBreaksPersistentTies) {
  AlwaysTieOracle oracle;
  util::Rng rng(2);
  // Must terminate and return a valid vote despite the oracle always tying.
  int plus = 0, minus = 0;
  for (int t = 0; t < 50; ++t) {
    const double v = oracle.BinaryJudgment(0, 1, &rng);
    EXPECT_TRUE(v == 1.0 || v == -1.0);
    (v > 0 ? plus : minus)++;
  }
  EXPECT_GT(plus, 0);
  EXPECT_GT(minus, 0);
}

TEST(PlatformTest, CountsEveryMicrotask) {
  FixedOracle oracle(10);
  CrowdPlatform platform(&oracle, 7);
  std::vector<double> out;
  platform.CollectPreferences(0, 1, 5, &out);
  EXPECT_EQ(platform.total_microtasks(), 5);
  EXPECT_EQ(out.size(), 5u);
  platform.CollectBinaryVotes(2, 3, 4, &out);
  EXPECT_EQ(platform.total_microtasks(), 9);
  platform.CollectGrades(4, 3, &out);
  EXPECT_EQ(platform.total_microtasks(), 12);
  EXPECT_EQ(out.size(), 12u);  // appended
}

TEST(PlatformTest, ZeroCountIsFree) {
  FixedOracle oracle(4);
  CrowdPlatform platform(&oracle, 7);
  std::vector<double> out;
  platform.CollectPreferences(0, 1, 0, &out);
  EXPECT_EQ(platform.total_microtasks(), 0);
  EXPECT_TRUE(out.empty());
}

TEST(PlatformTest, RoundAccounting) {
  FixedOracle oracle(4);
  CrowdPlatform platform(&oracle, 7);
  EXPECT_EQ(platform.rounds(), 0);
  platform.NextRound();
  platform.NextRound();
  EXPECT_EQ(platform.rounds(), 2);
  platform.AccountRounds(5);
  EXPECT_EQ(platform.rounds(), 7);
}

TEST(PlatformTest, ResetCountersKeepsRngStream) {
  FixedOracle oracle(4);
  CrowdPlatform platform(&oracle, 7);
  std::vector<double> out;
  platform.CollectPreferences(0, 1, 3, &out);
  platform.NextRound();
  platform.ResetCounters();
  EXPECT_EQ(platform.total_microtasks(), 0);
  EXPECT_EQ(platform.rounds(), 0);
}

TEST(PlatformTest, JudgmentsDeterministicPerSeed) {
  FixedOracle oracle(4);
  // FixedOracle ignores the rng; use a real random source through Gaussian
  // noise instead: two platforms with equal seeds must agree on binary votes
  // drawn through the default sign-of-preference path of a noisy oracle.
  class NoisyOracle : public JudgmentOracle {
   public:
    int64_t num_items() const override { return 4; }
    double PreferenceJudgment(ItemId, ItemId, util::Rng* rng) const override {
      return rng->Gaussian();
    }
    double GradedJudgment(ItemId, util::Rng* rng) const override {
      return rng->Uniform();
    }
  };
  NoisyOracle noisy;
  CrowdPlatform a(&noisy, 99);
  CrowdPlatform b(&noisy, 99);
  std::vector<double> va, vb;
  a.CollectPreferences(0, 1, 20, &va);
  b.CollectPreferences(0, 1, 20, &vb);
  EXPECT_EQ(va, vb);
  (void)oracle;
}

// --------------------------------------------------- WallClockSimulator

SimulatorOptions DeterministicSim(int64_t workers) {
  SimulatorOptions options;
  options.num_workers = workers;
  options.mean_task_seconds = 10.0;
  options.task_time_sigma = 0.0;
  options.mean_pickup_seconds = 0.0;
  options.cost_per_task_usd = 0.001;
  return options;
}

TEST(SimulatorTest, DeterministicRoundDuration) {
  WallClockSimulator simulator(DeterministicSim(4), 1);
  simulator.OnPurchase(0, 1, 12);  // 12 tasks, 4 workers, 10 s each
  simulator.OnRounds(1);
  EXPECT_DOUBLE_EQ(simulator.now_seconds(), 30.0);  // 3 sequential slots
  EXPECT_DOUBLE_EQ(simulator.total_cost_usd(), 0.012);
  EXPECT_EQ(simulator.total_microtasks(), 12);
}

TEST(SimulatorTest, PartialLastWaveStillTakesAFullTask) {
  WallClockSimulator simulator(DeterministicSim(4), 1);
  simulator.OnPurchase(0, 1, 13);  // ceil(13/4) = 4 waves
  simulator.OnRounds(1);
  EXPECT_DOUBLE_EQ(simulator.now_seconds(), 40.0);
}

TEST(SimulatorTest, EmptyRoundIsFree) {
  WallClockSimulator simulator(DeterministicSim(2), 1);
  simulator.OnRounds(1);
  simulator.OnRounds(1);
  EXPECT_DOUBLE_EQ(simulator.now_seconds(), 0.0);
}

TEST(SimulatorTest, MoreWorkersFasterRounds) {
  WallClockSimulator slow(DeterministicSim(2), 1);
  WallClockSimulator fast(DeterministicSim(20), 1);
  for (auto* simulator : {&slow, &fast}) {
    simulator->OnPurchase(0, 1, 100);
    simulator->OnRounds(1);
  }
  EXPECT_GT(slow.now_seconds(), 5.0 * fast.now_seconds());
}

TEST(SimulatorTest, StochasticDurationsHaveRequestedMean) {
  SimulatorOptions options = DeterministicSim(1);
  options.task_time_sigma = 0.5;  // lognormal, mean still 10 s
  WallClockSimulator simulator(options, 7);
  // A single worker: the total is the sum of the durations.
  simulator.OnPurchase(0, 1, 20000);
  simulator.OnRounds(1);
  EXPECT_NEAR(simulator.now_seconds() / 20000.0, 10.0, 0.3);
}

TEST(SimulatorTest, PlatformIntegrationCountsEverything) {
  FixedOracle oracle(6);
  WallClockSimulator simulator(DeterministicSim(3), 2);
  CrowdPlatform platform(&oracle, 3);
  platform.SetLatencyModel(&simulator);
  std::vector<double> out;
  platform.CollectPreferences(0, 1, 9, &out);
  platform.CollectGrades(2, 6, &out);
  platform.NextRound();
  EXPECT_EQ(simulator.total_microtasks(), 15);
  EXPECT_DOUBLE_EQ(simulator.now_seconds(), 50.0);  // ceil(15/3) = 5 waves
  // AccountRounds closes pending purchases too.
  platform.CollectPreferences(3, 4, 3, &out);
  platform.AccountRounds(2);
  EXPECT_DOUBLE_EQ(simulator.now_seconds(), 60.0);  // one 10 s wave + empty
}

// A latency model that logs its callbacks, for accounting tests. Each entry
// also records the totals the recorder had already seen at the call.
class CountingModel : public LatencyModel {
 public:
  explicit CountingModel(const telemetry::TraceRecorder* recorder)
      : recorder_(recorder) {}
  void OnPurchase(ItemId i, ItemId j, int64_t count) override {
    Log("buy " + std::to_string(i) + " " + std::to_string(j) + " " +
        std::to_string(count));
  }
  void OnRounds(int64_t n) override {
    boundaries_ += n;
    Log("rounds " + std::to_string(n));
  }
  int64_t boundaries() const { return boundaries_; }
  const std::vector<std::string>& calls() const { return calls_; }

 private:
  void Log(const std::string& call) {
    calls_.push_back(call + " after " +
                     std::to_string(recorder_->total_microtasks()) + "/" +
                     std::to_string(recorder_->total_rounds()));
  }

  const telemetry::TraceRecorder* recorder_;
  int64_t boundaries_ = 0;
  std::vector<std::string> calls_;
};

TEST(PlatformAccountingTest, AccountRoundsEmitsOneBoundaryPerRound) {
  FixedOracle oracle(4);
  telemetry::TraceRecorder recorder;
  CountingModel model(&recorder);
  CrowdPlatform platform(&oracle, 11);
  platform.SetLatencyModel(&model);
  platform.SetRecorder(&recorder);

  platform.AccountRounds(5);
  // Batched accounting must be indistinguishable from 5 NextRound calls to
  // both observers: 5 rounds to the model, 5 recorded rounds.
  EXPECT_EQ(platform.rounds(), 5);
  EXPECT_EQ(model.boundaries(), 5);
  EXPECT_EQ(recorder.total_rounds(), 5);

  platform.NextRound();
  EXPECT_EQ(platform.rounds(), 6);
  EXPECT_EQ(model.boundaries(), 6);
  EXPECT_EQ(recorder.total_rounds(), 6);

  // Zero rounds is a no-op for everyone.
  platform.AccountRounds(0);
  EXPECT_EQ(platform.rounds(), 6);
  EXPECT_EQ(model.boundaries(), 6);
  EXPECT_EQ(recorder.total_rounds(), 6);
}

// The model hears each purchase's (i, j, count) and each round batch's n,
// once, after the recorder; empty purchases and AccountRounds(0) reach
// neither. A served query parks in these calls, so a batch of n rounds
// must park it once.
TEST(PlatformAccountingTest, ModelSeesEachPurchaseAndRoundBatchAfterRecorder) {
  FixedOracle oracle(6);
  telemetry::TraceRecorder recorder;
  CountingModel model(&recorder);
  CrowdPlatform platform(&oracle, 5);
  platform.SetLatencyModel(&model);
  platform.SetRecorder(&recorder);

  std::vector<double> out;
  platform.CollectPreferences(0, 1, 9, &out);
  platform.CollectBinaryVotes(3, 2, 4, &out);
  platform.CollectGrades(5, 6, &out);
  platform.CollectPreferences(1, 4, 0, &out);
  platform.NextRound();
  platform.AccountRounds(0);
  platform.AccountRounds(3);
  EXPECT_EQ(model.calls(), (std::vector<std::string>{
                               "buy 0 1 9 after 9/0",
                               "buy 3 2 4 after 13/0",
                               "buy 5 -1 6 after 19/0",
                               "rounds 1 after 19/1",
                               "rounds 3 after 19/4",
                           }));
  EXPECT_EQ(out.size(), 19u);
}

TEST(PlatformAccountingTest, ResetCountersDoesNotDesyncRecorder) {
  FixedOracle oracle(4);
  telemetry::TraceRecorder recorder;
  CrowdPlatform platform(&oracle, 11);
  platform.SetRecorder(&recorder);

  std::vector<double> out;
  platform.CollectPreferences(0, 1, 7, &out);
  platform.AccountRounds(3);
  EXPECT_EQ(recorder.total_microtasks(), platform.total_microtasks());
  EXPECT_EQ(recorder.total_rounds(), platform.rounds());

  // ResetCounters only rewinds the platform's aggregates; the recorder is
  // append-only and keeps the full history of the query so far.
  platform.ResetCounters();
  EXPECT_EQ(platform.total_microtasks(), 0);
  EXPECT_EQ(platform.rounds(), 0);
  EXPECT_EQ(recorder.total_microtasks(), 7);
  EXPECT_EQ(recorder.total_rounds(), 3);

  // To restart both in lockstep, clear the recorder alongside the reset;
  // from then on the two stay equal again.
  recorder.Clear();
  platform.CollectPreferences(2, 3, 4, &out);
  platform.NextRound();
  EXPECT_EQ(recorder.total_microtasks(), platform.total_microtasks());
  EXPECT_EQ(recorder.total_rounds(), platform.rounds());
}

}  // namespace
}  // namespace crowdtopk::crowd
