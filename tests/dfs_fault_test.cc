// Storage-fault matrix (ISSUE 2): scripted DFS faults — failed writes/reads,
// outage windows, slow I/O, silent corruption — driven through the FaultInjector's
// DfsFaultHook, exercised against the atomic checkpoint commit protocol
// (partition objects + CRC32, manifest written last), the retry/backoff
// layer, the FT manager's degraded mode and pending sweep, and verified
// restores that fall back to lineage instead of trusting bad bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/checkpoint/ft_manager.h"
#include "src/common/crc32.h"
#include "src/dfs/manifest.h"
#include "src/dfs/retry.h"
#include "src/engine/typed_rdd.h"
#include "src/inject/fault_injector.h"
#include "tests/test_util.h"

namespace flint {
namespace {

using testing::EngineHarness;
using testing::EngineHarnessOptions;

// Installs the injector as the context's engine probe for the guard's
// lifetime (the DFS hook is installed by the injector's own constructor) and
// settles all injected activity before the injector or harness can die.
class ProbeGuard {
 public:
  ProbeGuard(FlintContext* ctx, FaultInjector* injector) : ctx_(ctx), injector_(injector) {
    ctx_->SetProbe(injector_);
  }
  ~ProbeGuard() {
    ctx_->SetProbe(nullptr);
    injector_->Drain();
    ctx_->DrainExecutors();
  }

  ProbeGuard(const ProbeGuard&) = delete;
  ProbeGuard& operator=(const ProbeGuard&) = delete;

 private:
  FlintContext* ctx_;
  FaultInjector* injector_;
};

DfsObject BytesObject(uint64_t size) {
  DfsObject obj;
  obj.size_bytes = size;
  obj.data = std::shared_ptr<const void>(new uint8_t[size],
                                         [](const void* p) { delete[] static_cast<const uint8_t*>(p); });
  return obj;
}

CheckpointConfig ManualFtConfig() {
  CheckpointConfig cfg;
  cfg.policy = CheckpointPolicyKind::kFlint;
  cfg.mttf_hours = 1.0;
  cfg.time.seconds_per_model_hour = 0.5;
  cfg.initial_delta_seconds = 0.001;
  return cfg;
}

// Retry budget that exhausts in microseconds: every failed Put is abandoned
// on its first attempt, which makes degraded-mode entry deterministic.
DfsRetryPolicy OneShotRetry() {
  DfsRetryPolicy policy;
  policy.max_attempts = 1;
  return policy;
}

void WaitForState(const RddPtr& rdd, CheckpointState want, int rounds = 600) {
  for (int i = 0; i < rounds && rdd->checkpoint_state() != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// Every non-empty checkpoint directory must contain its manifest: a
// partition object without a committed manifest is a torn (partial)
// checkpoint and must never be left behind.
void ExpectNoPartialCheckpointDirs(Dfs& dfs) {
  for (const std::string& path : dfs.List("ckpt/rdd_")) {
    const size_t dir_end = path.find('/', std::string("ckpt/").size());
    ASSERT_NE(dir_end, std::string::npos) << path;
    const std::string dir = path.substr(0, dir_end + 1);
    EXPECT_TRUE(dfs.Exists(ManifestPathFor(dir)))
        << "partial checkpoint directory (no manifest): " << dir;
  }
}

TEST(DfsFaultCrc32Test, MatchesKnownVectorAndDetectsChange) {
  const char msg[] = "123456789";
  EXPECT_EQ(Crc32(msg, 9), 0xCBF43926u);  // canonical CRC-32 check value
  char tampered[] = "123456788";
  EXPECT_NE(Crc32(tampered, 9), Crc32(msg, 9));
}

// --- injector storage actions, driven directly against a Dfs ---

TEST(DfsFaultInjectorTest, FailsTheNextNWritesMatchingPrefix) {
  ClusterManager cluster{TimeConfig{}};
  Dfs dfs{DfsConfig{}};
  FaultPlan plan;
  plan.events.push_back(FailWritesAt(EnginePoint::kDfsPut, /*after_hits=*/0, "ckpt/", 2));
  FaultInjector injector(&cluster, plan, &dfs);

  // The arming write itself is the first victim.
  Status first = dfs.Put("ckpt/a", BytesObject(8));
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  EXPECT_EQ(dfs.Put("ckpt/b", BytesObject(8)).code(), StatusCode::kUnavailable);
  // Budget exhausted: matching writes succeed again.
  EXPECT_TRUE(dfs.Put("ckpt/c", BytesObject(8)).ok());
  // Non-matching paths were never at risk.
  EXPECT_TRUE(dfs.Put("data/x", BytesObject(8)).ok());
  EXPECT_EQ(injector.GetStats().writes_failed_injected, 2u);
  EXPECT_EQ(injector.HitCount(EnginePoint::kDfsPut), 4);
}

TEST(DfsFaultInjectorTest, FailsReadsByPrefixWithoutTouchingWrites) {
  ClusterManager cluster{TimeConfig{}};
  Dfs dfs{DfsConfig{}};
  ASSERT_TRUE(dfs.Put("ckpt/a", BytesObject(8)).ok());
  FaultPlan plan;
  plan.events.push_back(FailReadsAt(EnginePoint::kDfsGet, /*after_hits=*/0, "ckpt/", 1));
  FaultInjector injector(&cluster, plan, &dfs);

  EXPECT_EQ(dfs.Get("ckpt/a").status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(dfs.Get("ckpt/a").ok());  // budget spent
  EXPECT_TRUE(dfs.Put("ckpt/b", BytesObject(8)).ok());
  EXPECT_EQ(injector.GetStats().reads_failed_injected, 1u);
}

TEST(DfsFaultInjectorTest, OutageWindowFailsMatchingOpsUntilItExpires) {
  ClusterManager cluster{TimeConfig{}};
  Dfs dfs{DfsConfig{}};
  ASSERT_TRUE(dfs.Put("ckpt/existing", BytesObject(8)).ok());
  FaultPlan plan;
  plan.events.push_back(DfsOutageAt(EnginePoint::kDfsPut, /*after_hits=*/1, "ckpt/",
                                    /*duration_seconds=*/0.05));
  FaultInjector injector(&cluster, plan, &dfs);

  // Hit 0 passes; hit 1 arms the outage and is swallowed by it.
  EXPECT_TRUE(dfs.Put("ckpt/w0", BytesObject(8)).ok());
  EXPECT_EQ(dfs.Put("ckpt/w1", BytesObject(8)).code(), StatusCode::kUnavailable);
  EXPECT_EQ(dfs.Get("ckpt/existing").status().code(), StatusCode::kUnavailable);
  // Unmatched prefixes stay available during the outage.
  EXPECT_TRUE(dfs.Put("data/y", BytesObject(8)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));  // one-sided: > window
  EXPECT_TRUE(dfs.Put("ckpt/w2", BytesObject(8)).ok());
  EXPECT_TRUE(dfs.Get("ckpt/existing").ok());
}

TEST(DfsFaultInjectorTest, SlowWindowMultipliesTransferTimeWithoutFailing) {
  ClusterManager cluster{TimeConfig{}};
  Dfs dfs{DfsConfig{}};
  FaultPlan plan;
  plan.events.push_back(DfsSlowAt(EnginePoint::kDfsPut, /*after_hits=*/0, "",
                                  /*duration_seconds=*/30.0, /*slow_factor=*/4.0));
  FaultInjector injector(&cluster, plan, &dfs);

  EXPECT_TRUE(dfs.Put("ckpt/slow", BytesObject(64)).ok());
  EXPECT_TRUE(dfs.Get("ckpt/slow").ok());
  EXPECT_GE(injector.GetStats().ops_slowed, 2u);
  EXPECT_EQ(injector.GetStats().writes_failed_injected, 0u);
}

// --- retry/backoff layer ---

TEST(DfsFaultRetryTest, PutRetriesTransientFailuresUntilSuccess) {
  ClusterManager cluster{TimeConfig{}};
  Dfs dfs{DfsConfig{}};
  FaultPlan plan;
  plan.events.push_back(FailWritesAt(EnginePoint::kDfsPut, /*after_hits=*/0, "", 2));
  FaultInjector injector(&cluster, plan, &dfs);

  DfsRetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_seconds = 0.0005;
  DfsRetryStats stats;
  ASSERT_TRUE(PutWithRetry(dfs, "ckpt/p", BytesObject(16), policy, &stats).ok());
  EXPECT_EQ(stats.attempts, 3);  // two injected failures, then success
  EXPECT_TRUE(dfs.Exists("ckpt/p"));
}

TEST(DfsFaultRetryTest, PutSurfacesUnavailableAfterExhaustedAttempts) {
  ClusterManager cluster{TimeConfig{}};
  Dfs dfs{DfsConfig{}};
  FaultPlan plan;
  plan.events.push_back(FailWritesAt(EnginePoint::kDfsPut, /*after_hits=*/0, "", 100));
  FaultInjector injector(&cluster, plan, &dfs);

  DfsRetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.0005;
  DfsRetryStats stats;
  Status st = PutWithRetry(dfs, "ckpt/p", BytesObject(16), policy, &stats);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_FALSE(dfs.Exists("ckpt/p"));
}

TEST(DfsFaultRetryTest, GetDoesNotRetryNotFound) {
  Dfs dfs{DfsConfig{}};
  DfsRetryStats stats;
  auto r = GetWithRetry(dfs, "ckpt/missing", DfsRetryPolicy{}, &stats);
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(stats.attempts, 1);  // a missing object will not appear by waiting
}

// --- manifest commit record ---

TEST(DfsFaultManifestTest, MissingManifestReadsAsNotFoundAndCorruptAsDataLoss) {
  Dfs dfs{DfsConfig{}};
  // Torn checkpoint: partition objects present, manifest never written.
  ASSERT_TRUE(dfs.Put("ckpt/rdd_7/part_0", BytesObject(8)).ok());
  auto torn = ReadManifest(dfs, ManifestPathFor("ckpt/rdd_7/"), DfsRetryPolicy{});
  EXPECT_EQ(torn.status().code(), StatusCode::kNotFound);

  auto manifest = std::make_shared<CheckpointManifest>();
  manifest->rdd_id = 7;
  manifest->partitions.push_back(CheckpointPartitionMeta{8, 1234});
  ASSERT_TRUE(dfs.Put(ManifestPathFor("ckpt/rdd_7/"), MakeManifestObject(manifest)).ok());
  auto good = ReadManifest(dfs, ManifestPathFor("ckpt/rdd_7/"), DfsRetryPolicy{});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ((*good)->rdd_id, 7);
  ASSERT_EQ((*good)->partitions.size(), 1u);
  EXPECT_EQ((*good)->partitions[0].crc32, 1234u);

  // Silent bit rot scrambles the stored checksum; the read must refuse.
  ASSERT_EQ(dfs.CorruptMatching(ManifestPathFor("ckpt/rdd_7/")), 1u);
  auto corrupt = ReadManifest(dfs, ManifestPathFor("ckpt/rdd_7/"), DfsRetryPolicy{});
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss);
}

// --- engine-level matrix ---

// A transient write failure on the first checkpoint Put: the retry layer
// absorbs it, the checkpoint commits (manifest last), and after losing the
// whole cluster the data comes back from the DFS bit-identical.
TEST(DfsFaultTest, FailedWriteRetriesAndCheckpointLands) {
  EngineHarness h;
  FaultToleranceManager ft(&h.ctx(), ManualFtConfig());
  FaultPlan plan;
  plan.events.push_back(FailWritesAt(EnginePoint::kDfsPut, /*after_hits=*/0, "ckpt/", 1));
  FaultInjector injector(&h.cluster(), plan, &h.dfs());
  ProbeGuard guard(&h.ctx(), &injector);

  std::vector<int> data(400);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, 4).Map([](const int& x) { return x + 3; });
  rdd.Cache();
  ASSERT_TRUE(rdd.Materialize().ok());
  ft.CheckpointRddNow(rdd.raw());
  WaitForState(rdd.raw(), CheckpointState::kSaved);
  ASSERT_EQ(rdd.raw()->checkpoint_state(), CheckpointState::kSaved);

  EXPECT_GE(h.ctx().counters().write_retries.load(), 1u);
  EXPECT_EQ(h.ctx().counters().writes_abandoned.load(), 0u);
  EXPECT_EQ(injector.GetStats().writes_failed_injected, 1u);
  EXPECT_TRUE(h.dfs().Exists(rdd.raw()->ManifestPath()));
  ExpectNoPartialCheckpointDirs(h.dfs());

  h.RevokeNodes(4);
  h.AddNode();
  auto out = rdd.Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->front(), 3);
  EXPECT_EQ(out->back(), 402);
  EXPECT_GE(h.ctx().counters().checkpoint_reads.load(), 1u);
}

// A store outage long enough to outlive the whole test: every write is
// abandoned, the FT manager enters degraded mode, and signal rounds are
// suspended (probed, not fired) instead of queueing more doomed work.
TEST(DfsFaultTest, ExhaustedRetriesEnterDegradedModeAndSuspendSignals) {
  EngineHarnessOptions opts;
  // One single-threaded node serializes the four writes, so the outage armed
  // by the first write deterministically swallows all of them.
  opts.num_nodes = 1;
  opts.checkpoint_retry = OneShotRetry();
  EngineHarness h{opts};
  CheckpointConfig cfg = ManualFtConfig();
  cfg.degraded_after_failures = 1;
  cfg.pending_retry_seconds = 1e6;  // keep the sweep out of this test
  FaultToleranceManager ft(&h.ctx(), cfg);
  FaultPlan plan;
  plan.events.push_back(DfsOutageAt(EnginePoint::kDfsPut, /*after_hits=*/0, "ckpt/",
                                    /*duration_seconds=*/300.0));
  FaultInjector injector(&h.cluster(), plan, &h.dfs());
  ProbeGuard guard(&h.ctx(), &injector);

  std::vector<int> data(200);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, 4).Map([](const int& x) { return x * 2; });
  rdd.Cache();
  ASSERT_TRUE(rdd.Materialize().ok());
  ft.CheckpointRddNow(rdd.raw());
  h.ctx().DrainExecutors();  // all four writes have been abandoned

  EXPECT_GE(h.ctx().counters().writes_abandoned.load(), 1u);
  EXPECT_TRUE(ft.degraded());
  auto stats = ft.GetStats();
  EXPECT_GE(stats.writes_failed, 1u);
  EXPECT_EQ(stats.degraded_entered, 1u);

  ft.FireCheckpointRound();  // probe fails against the outage; round skipped
  stats = ft.GetStats();
  EXPECT_GE(stats.signals_suspended, 1u);
  EXPECT_TRUE(ft.degraded());
  EXPECT_NE(rdd.raw()->checkpoint_state(), CheckpointState::kSaved);
  // The torn directory holds nothing: no partition object ever landed.
  EXPECT_TRUE(h.dfs().List(rdd.raw()->CheckpointDir()).empty());
}

// Degraded mode ends when the store heals: the next round's probe succeeds,
// the pending sweep re-enqueues the stalled partitions, and the checkpoint
// finally commits.
TEST(DfsFaultTest, DegradedModeRecoversAndPendingSweepFinishesTheCheckpoint) {
  EngineHarnessOptions opts;
  opts.num_nodes = 1;  // serialize writes behind the outage-arming one
  opts.checkpoint_retry = OneShotRetry();
  EngineHarness h{opts};
  CheckpointConfig cfg = ManualFtConfig();
  cfg.degraded_after_failures = 1;
  cfg.pending_retry_seconds = 0.02;
  cfg.pending_max_retries = 50;
  FaultToleranceManager ft(&h.ctx(), cfg);
  FaultPlan plan;
  plan.events.push_back(DfsOutageAt(EnginePoint::kDfsPut, /*after_hits=*/0, "ckpt/",
                                    /*duration_seconds=*/0.3));
  FaultInjector injector(&h.cluster(), plan, &h.dfs());
  ProbeGuard guard(&h.ctx(), &injector);

  std::vector<int> data(200);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, 4).Map([](const int& x) { return x + 9; });
  rdd.Cache();
  ASSERT_TRUE(rdd.Materialize().ok());
  ft.CheckpointRddNow(rdd.raw());
  h.ctx().DrainExecutors();
  // The outage-arming write was abandoned inside the window, so degraded
  // mode is entered deterministically even if later writes slip past it.
  EXPECT_TRUE(ft.degraded());

  std::this_thread::sleep_for(std::chrono::milliseconds(350));  // one-sided: outage over
  // Re-fire rounds until the probe lands and the sweep re-enqueues what the
  // abandoned writers left behind.
  for (int i = 0; i < 600 && rdd.raw()->checkpoint_state() != CheckpointState::kSaved; ++i) {
    ft.FireCheckpointRound();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(rdd.raw()->checkpoint_state(), CheckpointState::kSaved);
  EXPECT_FALSE(ft.degraded());
  auto stats = ft.GetStats();
  EXPECT_GE(stats.degraded_entered, 1u);
  EXPECT_GE(stats.degraded_recovered, 1u);
  EXPECT_GE(stats.pending_requeued, 1u);
  EXPECT_TRUE(h.dfs().Exists(rdd.raw()->ManifestPath()));
  ExpectNoPartialCheckpointDirs(h.dfs());
}

// Silent corruption of one stored partition: the verified restore refuses
// the bytes, quarantines the checkpoint directory, and lineage recomputation
// produces a bit-identical answer.
TEST(DfsFaultTest, CorruptPartitionFallsBackToLineageBitIdentical) {
  std::vector<int> reference;
  {
    EngineHarness clean;
    std::vector<int> data(400);
    std::iota(data.begin(), data.end(), 0);
    auto rdd = Parallelize(&clean.ctx(), data, 4).Map([](const int& x) { return x * 5 + 1; });
    auto out = rdd.Collect();
    ASSERT_TRUE(out.ok());
    reference = *out;
  }

  EngineHarness h;
  FaultToleranceManager ft(&h.ctx(), ManualFtConfig());
  std::vector<int> data(400);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, 4).Map([](const int& x) { return x * 5 + 1; });
  rdd.Cache();
  ASSERT_TRUE(rdd.Materialize().ok());
  ft.CheckpointRddNow(rdd.raw());
  WaitForState(rdd.raw(), CheckpointState::kSaved);
  ASSERT_EQ(rdd.raw()->checkpoint_state(), CheckpointState::kSaved);

  // Rot one stored partition, then lose the cache so the next read must go
  // through the checkpoint.
  ASSERT_EQ(h.dfs().CorruptMatching(rdd.raw()->CheckpointPath(1)), 1u);
  h.RevokeNodes(4);
  h.AddNode();

  auto out = rdd.Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, reference);
  EXPECT_GE(h.ctx().counters().restores_fallen_back.load(), 1u);
  EXPECT_GE(h.ctx().counters().checkpoints_quarantined.load(), 1u);
  EXPECT_EQ(rdd.raw()->checkpoint_state(), CheckpointState::kNone);
  EXPECT_TRUE(h.dfs().List(rdd.raw()->CheckpointDir()).empty());
}

// A manifest that can never land: every partition write succeeds but the
// commit Put is rejected until the retry budget dies. The checkpoint must
// never become visible (kSaved) and the torn directory must be quarantined.
TEST(DfsFaultTest, TornManifestIsInvisibleAndQuarantined) {
  EngineHarness h;
  FaultToleranceManager ft(&h.ctx(), ManualFtConfig());
  std::vector<int> data(300);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, 3).Map([](const int& x) { return x - 1; });
  rdd.Cache();
  ASSERT_TRUE(rdd.Materialize().ok());

  FaultPlan plan;
  plan.events.push_back(
      FailWritesAt(EnginePoint::kDfsPut, /*after_hits=*/0, rdd.raw()->ManifestPath(), 1000));
  FaultInjector injector(&h.cluster(), plan, &h.dfs());
  ProbeGuard guard(&h.ctx(), &injector);

  ft.CheckpointRddNow(rdd.raw());
  for (int i = 0; i < 600 && h.ctx().counters().checkpoints_quarantined.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(h.ctx().counters().checkpoints_quarantined.load(), 1u);
  EXPECT_GE(h.ctx().counters().writes_abandoned.load(), 1u);
  EXPECT_NE(rdd.raw()->checkpoint_state(), CheckpointState::kSaved);
  EXPECT_TRUE(h.dfs().List(rdd.raw()->CheckpointDir()).empty());
  // The cached data is untouched; results still come from the cluster.
  auto out = rdd.Collect();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->front(), -1);
}

// Deletes the checkpoint directory the instant a restore fetches its first
// partition object — the GC-races-restore interleaving. The reader must see
// a clean NotFound (manifest already validated, object gone), demote the
// RDD, and recompute from lineage; it must never serve a partial read.
class DeleteDirOnFirstPartitionRead : public DfsFaultHook {
 public:
  DeleteDirOnFirstPartitionRead(Dfs* dfs, std::string dir) : dfs_(dfs), dir_(std::move(dir)) {}

  DfsFaultVerdict OnPut(const std::string&) override { return DfsFaultVerdict{}; }
  DfsFaultVerdict OnGet(const std::string& path) override {
    if (path.rfind(dir_ + "part_", 0) == 0 && !fired_.exchange(true)) {
      dfs_->DeletePrefix(dir_);  // the hook runs outside the store's lock
    }
    return DfsFaultVerdict{};
  }

 private:
  Dfs* dfs_;
  std::string dir_;
  std::atomic<bool> fired_{false};
};

TEST(DfsFaultTest, DeletePrefixRacingRestoreFallsBackCleanly) {
  std::vector<int> reference;
  {
    EngineHarness clean;
    std::vector<int> data(400);
    std::iota(data.begin(), data.end(), 0);
    auto rdd = Parallelize(&clean.ctx(), data, 4).Map([](const int& x) { return x ^ 21; });
    auto out = rdd.Collect();
    ASSERT_TRUE(out.ok());
    reference = *out;
  }

  EngineHarness h;
  FaultToleranceManager ft(&h.ctx(), ManualFtConfig());
  std::vector<int> data(400);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, 4).Map([](const int& x) { return x ^ 21; });
  rdd.Cache();
  ASSERT_TRUE(rdd.Materialize().ok());
  ft.CheckpointRddNow(rdd.raw());
  WaitForState(rdd.raw(), CheckpointState::kSaved);
  ASSERT_EQ(rdd.raw()->checkpoint_state(), CheckpointState::kSaved);

  h.RevokeNodes(4);
  h.AddNode();
  DeleteDirOnFirstPartitionRead racer(&h.dfs(), rdd.raw()->CheckpointDir());
  h.dfs().SetFaultHook(&racer);
  auto out = rdd.Collect();
  h.ctx().DrainExecutors();
  h.dfs().SetFaultHook(nullptr);

  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, reference);
  EXPECT_GE(h.ctx().counters().restores_fallen_back.load(), 1u);
  // A GC race is a clean miss, not corruption: nothing to quarantine.
  EXPECT_EQ(h.ctx().counters().checkpoints_quarantined.load(), 0u);
  EXPECT_EQ(rdd.raw()->checkpoint_state(), CheckpointState::kNone);
  EXPECT_TRUE(h.dfs().List(rdd.raw()->CheckpointDir()).empty());
}

// The acceptance scenario: a scripted run where ~20% of checkpoint writes
// fail transiently and one mid-job corruption lands right before the restore
// reads begin. The job must finish bit-identical to a fault-free run, having
// retried writes and fallen back to lineage, leaving no partial checkpoint
// directory behind.
TEST(DfsFaultTest, AcceptanceTwentyPercentWriteFailuresPlusMidJobCorruption) {
  std::vector<int> reference;
  {
    EngineHarness clean;
    std::vector<int> data(500);
    std::iota(data.begin(), data.end(), 0);
    auto a = Parallelize(&clean.ctx(), data, 4).Map([](const int& x) { return x * 3; });
    auto b = a.Map([](const int& x) { return x + 11; });
    auto out = b.Collect();
    ASSERT_TRUE(out.ok());
    reference = *out;
  }

  EngineHarness h;
  FaultToleranceManager ft(&h.ctx(), ManualFtConfig());
  FaultPlan plan;
  // Every 5th checkpoint write fails transiently (the arming Put included).
  for (int hit : {0, 5, 10, 15, 20}) {
    plan.events.push_back(FailWritesAt(EnginePoint::kDfsPut, hit, "ckpt/", 1));
  }
  // One silent corruption of everything checkpointed, sprung by the first
  // restore read of the recovery phase.
  plan.events.push_back(CorruptObjectAt(EnginePoint::kDfsGet, /*after_hits=*/0, "ckpt/"));
  FaultInjector injector(&h.cluster(), plan, &h.dfs());
  ProbeGuard guard(&h.ctx(), &injector);

  std::vector<int> data(500);
  std::iota(data.begin(), data.end(), 0);
  auto a = Parallelize(&h.ctx(), data, 4).Map([](const int& x) { return x * 3; });
  a.Cache();
  ASSERT_TRUE(a.Materialize().ok());
  ft.CheckpointRddNow(a.raw());
  WaitForState(a.raw(), CheckpointState::kSaved);
  ASSERT_EQ(a.raw()->checkpoint_state(), CheckpointState::kSaved);

  // Lose the cluster; the downstream job must restore — and, finding rot,
  // recompute.
  h.RevokeNodes(4);
  h.AddNode();
  auto b = a.Map([](const int& x) { return x + 11; });
  auto out = b.Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, reference);

  EXPECT_GE(h.ctx().counters().write_retries.load(), 1u);
  EXPECT_GE(h.ctx().counters().restores_fallen_back.load(), 1u);
  EXPECT_GE(h.ctx().counters().checkpoints_quarantined.load(), 1u);
  EXPECT_GE(injector.GetStats().objects_corrupted, 1u);
  ExpectNoPartialCheckpointDirs(h.dfs());
}

}  // namespace
}  // namespace flint
