// Tests for the checkpoint policy math (Sec 3.1 closed forms) and the
// fault-tolerance manager's frontier tracking, marking, delta adaptation,
// and garbage collection.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <thread>

#include "src/checkpoint/checkpoint_policy.h"
#include "src/common/stats.h"
#include "src/checkpoint/ft_manager.h"
#include "src/engine/typed_rdd.h"
#include "tests/test_util.h"

namespace flint {
namespace {

using testing::EngineHarness;

// --- closed forms ---

TEST(CheckpointPolicyMath, DalyIntervalMatchesFormula) {
  EXPECT_DOUBLE_EQ(OptimalCheckpointInterval(0.5, 100.0), std::sqrt(2.0 * 0.5 * 100.0));
  EXPECT_DOUBLE_EQ(OptimalCheckpointInterval(0.02, 50.0), std::sqrt(2.0));
}

TEST(CheckpointPolicyMath, InfiniteMttfNeverCheckpoints) {
  EXPECT_TRUE(std::isinf(OptimalCheckpointInterval(0.5, std::numeric_limits<double>::infinity())));
  EXPECT_DOUBLE_EQ(ExpectedRuntimeFactor(0.5, 0.03, std::numeric_limits<double>::infinity()), 1.0);
}

TEST(CheckpointPolicyMath, FactorDecreasesWithMttf) {
  const double delta = 0.033;
  const double rd = 0.033;
  double prev = std::numeric_limits<double>::infinity();
  for (double mttf : {1.0, 5.0, 20.0, 50.0, 200.0, 700.0}) {
    const double f = ExpectedRuntimeFactor(delta, rd, mttf);
    EXPECT_LT(f, prev) << "mttf=" << mttf;
    EXPECT_GT(f, 1.0);
    prev = f;
  }
}

TEST(CheckpointPolicyMath, DalyIntervalMinimizesExpectedFactor) {
  // The factor computed at tau_opt must beat a grid of other intervals.
  const double delta = 0.05;
  const double mttf = 40.0;
  const double rd = 0.0;
  auto factor_at = [&](double tau) { return 1.0 + delta / tau + (tau / 2.0 + rd) / mttf; };
  const double opt = OptimalCheckpointInterval(delta, mttf);
  for (double tau = opt / 8.0; tau < opt * 8.0; tau *= 1.3) {
    EXPECT_LE(factor_at(opt), factor_at(tau) + 1e-12);
  }
}

TEST(CheckpointPolicyMath, AggregateMttfIsHarmonicForm) {
  EXPECT_DOUBLE_EQ(AggregateMttf({100.0, 100.0}), 50.0);
  EXPECT_DOUBLE_EQ(AggregateMttf({50.0, 100.0}), 1.0 / (1.0 / 50.0 + 1.0 / 100.0));
  EXPECT_TRUE(std::isinf(AggregateMttf({})));
}

TEST(CheckpointPolicyMath, VarianceDecreasesWithMoreMarkets) {
  // Equal-MTTF markets: aggregate MTTF scales 1/m while per-event loss
  // scales 1/m -> variance must fall as m grows (the Sec 3.2 motivation).
  const double delta = 0.033;
  const double rd = 0.033;
  const double per_market_mttf = 100.0;
  double prev = std::numeric_limits<double>::infinity();
  for (int m = 1; m <= 8; m *= 2) {
    std::vector<double> mttfs(static_cast<size_t>(m), per_market_mttf);
    const double agg = AggregateMttf(mttfs);
    const double var = RuntimeVariancePerUnitTime(delta, rd, agg, m);
    EXPECT_LT(var, prev) << "m=" << m;
    prev = var;
  }
}

// --- FT manager on the engine ---

CheckpointConfig FastFlintConfig() {
  CheckpointConfig cfg;
  cfg.policy = CheckpointPolicyKind::kFlint;
  cfg.mttf_hours = 1.0;
  cfg.time.seconds_per_model_hour = 0.5;  // tau lands in the tens of ms
  cfg.initial_delta_seconds = 0.001;
  return cfg;
}

TEST(FtManagerTest, ManualCheckpointSavesAndTruncatesLineage) {
  EngineHarness h;
  FaultToleranceManager ft(&h.ctx(), FastFlintConfig());
  std::vector<int> data(500);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, 4).Map([](const int& x) { return x + 1; });
  rdd.Cache();
  ASSERT_TRUE(rdd.Materialize().ok());

  ft.CheckpointRddNow(rdd.raw());
  // Writes run on executor pools; wait for them by polling the state.
  for (int i = 0; i < 200 && rdd.raw()->checkpoint_state() != CheckpointState::kSaved; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(rdd.raw()->checkpoint_state(), CheckpointState::kSaved);
  // 4 partition objects plus the commit manifest (written last).
  EXPECT_EQ(h.dfs().List(rdd.raw()->CheckpointDir()).size(), 5u);
  EXPECT_TRUE(h.dfs().Exists(rdd.raw()->ManifestPath()));

  // Kill the whole cluster: recomputation must come from the checkpoint, not
  // the origin (which we can tell because results still match).
  h.RevokeNodes(4);
  h.AddNode();
  auto out = rdd.Collect();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->front(), 1);
  EXPECT_GT(h.ctx().counters().checkpoint_reads.load(), 0u);
}

TEST(FtManagerTest, PeriodicSignalCheckpointsFrontier) {
  EngineHarness h;
  FaultToleranceManager ft(&h.ctx(), FastFlintConfig());
  ft.Start();
  std::vector<int> data(2000);
  std::iota(data.begin(), data.end(), 0);
  auto a = Parallelize(&h.ctx(), data, 4);
  a.Cache();
  ASSERT_TRUE(a.Materialize().ok());
  // Give the signal thread a few periods to mark and write.
  bool saved = false;
  for (int i = 0; i < 400 && !saved; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    saved = a.raw()->checkpoint_state() == CheckpointState::kSaved;
  }
  ft.Stop();
  EXPECT_TRUE(saved);
  EXPECT_GT(ft.GetStats().signals_fired, 0u);
}

TEST(FtManagerTest, GcDeletesAncestorCheckpoints) {
  EngineHarness h;
  FaultToleranceManager ft(&h.ctx(), FastFlintConfig());
  std::vector<int> data(200);
  std::iota(data.begin(), data.end(), 0);
  // Parent deliberately NOT cached: cached RDDs are pinned against GC.
  auto parent = Parallelize(&h.ctx(), data, 2).Map([](const int& x) { return x * 2; });
  ASSERT_TRUE(parent.Materialize().ok());
  ft.CheckpointRddNow(parent.raw());
  for (int i = 0; i < 200 && parent.raw()->checkpoint_state() != CheckpointState::kSaved; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(parent.raw()->checkpoint_state(), CheckpointState::kSaved);

  auto child = parent.Map([](const int& x) { return x + 1; });
  child.Cache();
  ASSERT_TRUE(child.Materialize().ok());
  ft.CheckpointRddNow(child.raw());
  for (int i = 0; i < 200 && child.raw()->checkpoint_state() != CheckpointState::kSaved; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(child.raw()->checkpoint_state(), CheckpointState::kSaved);

  // The child checkpoint terminates the lineage; the parent's checkpoint is
  // unreachable and must have been garbage-collected.
  EXPECT_TRUE(h.dfs().List(parent.raw()->CheckpointDir()).empty());
  // 2 partition objects plus the commit manifest.
  EXPECT_EQ(h.dfs().List(child.raw()->CheckpointDir()).size(), 3u);
  EXPECT_GE(ft.GetStats().gc_deleted_rdds, 1u);
}

TEST(FtManagerTest, DeltaEstimateAdaptsToMeasuredWrites) {
  EngineHarness h;
  CheckpointConfig cfg = FastFlintConfig();
  cfg.initial_delta_seconds = 5.0;  // absurdly conservative initial estimate
  FaultToleranceManager ft(&h.ctx(), cfg);
  std::vector<int> data(500);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, 4);
  rdd.Cache();
  ASSERT_TRUE(rdd.Materialize().ok());
  ft.CheckpointRddNow(rdd.raw());
  for (int i = 0; i < 200 && rdd.raw()->checkpoint_state() != CheckpointState::kSaved; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The measured write round is milliseconds; the EWMA must have pulled the
  // estimate far below the initial 5 s.
  EXPECT_LT(ft.CurrentDeltaSeconds(), 3.0);
}

TEST(FtManagerTest, NonePolicyNeverWrites) {
  EngineHarness h;
  CheckpointConfig cfg = FastFlintConfig();
  cfg.policy = CheckpointPolicyKind::kNone;
  FaultToleranceManager ft(&h.ctx(), cfg);
  ft.Start();
  std::vector<int> data(500);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, 4);
  rdd.Cache();
  ASSERT_TRUE(rdd.Materialize().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ft.Stop();
  EXPECT_EQ(h.ctx().counters().checkpoint_writes.load(), 0u);
}

TEST(FtManagerTest, SystemsLevelSnapshotsWholeCache) {
  EngineHarness h;
  CheckpointConfig cfg = FastFlintConfig();
  cfg.policy = CheckpointPolicyKind::kSystemsLevel;
  FaultToleranceManager ft(&h.ctx(), cfg);
  std::vector<int> data(2000);
  std::iota(data.begin(), data.end(), 0);
  auto a = Parallelize(&h.ctx(), data, 4);
  a.Cache();
  auto b = a.Map([](const int& x) { return x * 3; });
  b.Cache();
  ASSERT_TRUE(b.Materialize().ok());
  ft.Start();
  // Wait for at least one systems-level epoch to land in the DFS.
  bool snapshotted = false;
  for (int i = 0; i < 400 && !snapshotted; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    snapshotted = !h.dfs().List("sys/").empty();
  }
  ft.Stop();
  // The last epoch's blob writes run on the executors; let them land before
  // counting (an earlier epoch's blobs are deleted when the next one starts).
  h.ctx().DrainExecutors();
  EXPECT_TRUE(snapshotted);
  // Both cached RDDs' partitions appear in the snapshot (8 blocks).
  EXPECT_GE(h.dfs().List("sys/").size(), 8u);
}

// The periodic signal must not be bankable: an unconsumed signal expires
// after signal_expiry_factor * tau instead of marking whatever RDD happens
// to be generated much later (possibly doubling that interval's checkpoints).
TEST(FtManagerTest, StaleCheckpointSignalExpiresInsteadOfMarking) {
  EngineHarness h;
  CheckpointConfig cfg;
  cfg.policy = CheckpointPolicyKind::kFixedInterval;
  cfg.fixed_interval_seconds = 0.05;  // expiry window = 50 ms
  FaultToleranceManager ft(&h.ctx(), cfg);  // no Start(): rounds fired by hand

  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto source = Parallelize(&h.ctx(), data, 2);

  // Fresh signal: the next dependent RDD is marked.
  ft.FireCheckpointRound();
  auto fresh = source.Map([](const int& x) { return x + 1; });
  EXPECT_EQ(fresh.raw()->checkpoint_state(), CheckpointState::kMarked);
  EXPECT_EQ(ft.GetStats().signals_expired, 0u);

  // Stale signal: fired, then nothing generated for > the expiry window.
  ft.FireCheckpointRound();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  auto stale = source.Map([](const int& x) { return x + 2; });
  EXPECT_EQ(stale.raw()->checkpoint_state(), CheckpointState::kNone);
  EXPECT_EQ(ft.GetStats().signals_expired, 1u);

  // An unconsumed signal surviving to the next round also counts as expired
  // (it is re-armed with a fresh window, not silently carried over).
  ft.FireCheckpointRound();
  ft.FireCheckpointRound();
  EXPECT_EQ(ft.GetStats().signals_expired, 2u);
  auto consumed = source.Map([](const int& x) { return x + 3; });
  EXPECT_EQ(consumed.raw()->checkpoint_state(), CheckpointState::kMarked);
}

}  // namespace
}  // namespace flint
