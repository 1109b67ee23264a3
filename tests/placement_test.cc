// Task placement + execution-start deadlines: PickNode weights its smooth
// weighted round-robin by the EWMA health score pushed from the NodeManager,
// so a degraded-but-unbenched node draws proportionally less work; it
// prefers the node caching the task's nearest narrow ancestor, but only
// within one round of credit, so locality never overrides the weighted
// shares; and attempt deadlines/service times run from the executor's own
// execution-start stamp, so queue wait on a busy node neither inflates the
// runtime quantiles nor counts against deadlines.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "src/engine/context.h"
#include "src/engine/dag_scheduler.h"
#include "src/engine/typed_rdd.h"
#include "src/engine/typed_rdd_ops.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

// Sanitizers stretch compute unpredictably; keep structural assertions, drop
// wall-clock ratio assertions (same policy as straggler_test.cc).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define FLINT_TIMING_ASSERTS 0
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FLINT_TIMING_ASSERTS 0
#else
#define FLINT_TIMING_ASSERTS 1
#endif
#else
#define FLINT_TIMING_ASSERTS 1
#endif

namespace flint {
namespace {

using testing::EngineHarness;
using testing::EngineHarnessOptions;

// --- SwrrPick unit behaviour ---

TEST(SwrrPickTest, EqualWeightsDegenerateToRoundRobin) {
  const std::vector<double> weights{1.0, 1.0, 1.0};
  std::vector<double> credits(3, 0.0);
  std::vector<size_t> picks;
  for (int i = 0; i < 9; ++i) {
    picks.push_back(SwrrPick(weights, credits));
  }
  const std::vector<size_t> expect{0, 1, 2, 0, 1, 2, 0, 1, 2};
  EXPECT_EQ(picks, expect);
}

TEST(SwrrPickTest, ProportionalAndInterleavedAtHalfWeight) {
  // Index 0 at weight 0.5 against two full-weight peers: exactly 50 of 250
  // picks (0.5 / 2.5), and never starved for long stretches.
  const std::vector<double> weights{0.5, 1.0, 1.0};
  std::vector<double> credits(3, 0.0);
  std::vector<int> counts(3, 0);
  int longest_drought = 0;
  int since_zero = 0;
  for (int i = 0; i < 250; ++i) {
    const size_t pick = SwrrPick(weights, credits);
    ++counts[pick];
    since_zero = pick == 0 ? 0 : since_zero + 1;
    longest_drought = std::max(longest_drought, since_zero);
  }
  EXPECT_EQ(counts[0], 50);
  EXPECT_EQ(counts[1], 100);
  EXPECT_EQ(counts[2], 100);
  // Smoothness: the weighted node appears roughly every 1/share picks, not
  // in a burst at the end.
  EXPECT_LE(longest_drought, 10);
}

TEST(SwrrPickTest, DeterministicAcrossRuns) {
  const std::vector<double> weights{0.3, 1.0, 0.7, 1.0};
  std::vector<double> credits_a(4, 0.0);
  std::vector<double> credits_b(4, 0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(SwrrPick(weights, credits_a), SwrrPick(weights, credits_b)) << "step " << i;
  }
  EXPECT_EQ(credits_a, credits_b);
}

TEST(SwrrPickTest, PreferenceWinsOnlyWithinOneRoundOfTheLeader) {
  const std::vector<double> weights{1.0, 1.0, 1.0, 1.0};
  // After the earn step the credits are {-4, 4, 0, 1}: index 1 leads, one
  // round is 4, so index 2 (4 behind) may take the pick and index 0 (8
  // behind) may not.
  std::vector<double> credits{-5.0, 3.0, -1.0, 0.0};
  EXPECT_EQ(SwrrPick(weights, credits, /*preferred=*/2), 2u);
  EXPECT_EQ(credits, (std::vector<double>{-4.0, 4.0, -4.0, 1.0}));
  credits = {-5.0, 3.0, -1.0, 0.0};
  EXPECT_EQ(SwrrPick(weights, credits, /*preferred=*/0), 1u);
  EXPECT_EQ(credits, (std::vector<double>{-4.0, 0.0, 0.0, 1.0}));
}

// --- health-weighted placement through the scheduler ---

TEST(HealthPlacementTest, DegradedNodeReceivesProportionallyLessWork) {
  EngineHarnessOptions options;
  options.num_nodes = 3;
  EngineHarness h(options);
  const NodeId degraded = h.node_ids()[0];
  // The regression scenario from ROADMAP: one node at score 0.5, unbenched.
  h.ctx().SetNodeHealthScore(degraded, 0.5);

  std::vector<int> data(60);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, /*partitions=*/60).Map([](const int& x) {
    return x + 1;
  });
  auto out = rdd.Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // 60 uncached partitions all route through the weighted round-robin:
  // weights 0.5/1/1 => shares 12/24/24. The scheduler thread is the only
  // picker and candidate vectors are id-sorted, so the split is exact.
  std::vector<uint64_t> picked;
  for (NodeId id : h.node_ids()) {
    picked.push_back(h.ctx().GetNodeState(id)->tasks_picked.load());
  }
  EXPECT_EQ(picked[0], 12u) << "degraded node should draw a half share";
  EXPECT_EQ(picked[1], 24u);
  EXPECT_EQ(picked[2], 24u);
}

TEST(HealthPlacementTest, UniformHealthSplitsEvenly) {
  EngineHarnessOptions options;
  options.num_nodes = 3;
  EngineHarness h(options);

  std::vector<int> data(60);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, /*partitions=*/60).Map([](const int& x) {
    return x * 2;
  });
  ASSERT_TRUE(rdd.Collect().ok());

  for (NodeId id : h.node_ids()) {
    EXPECT_EQ(h.ctx().GetNodeState(id)->tasks_picked.load(), 20u)
        << "equal weights must keep the exact round-robin split (node " << id << ")";
  }
}

TEST(HealthPlacementTest, ScoreRecoveryRestoresFullShare) {
  EngineHarnessOptions options;
  options.num_nodes = 2;
  EngineHarness h(options);
  const NodeId degraded = h.node_ids()[0];
  h.ctx().SetNodeHealthScore(degraded, 0.25);
  h.ctx().SetNodeHealthScore(degraded, 1.0);  // scorer saw it recover

  std::vector<int> data(40);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, /*partitions=*/40).Map([](const int& x) {
    return x - 1;
  });
  ASSERT_TRUE(rdd.Collect().ok());

  const uint64_t a = h.ctx().GetNodeState(h.node_ids()[0])->tasks_picked.load();
  const uint64_t b = h.ctx().GetNodeState(h.node_ids()[1])->tasks_picked.load();
  EXPECT_EQ(a, 20u);
  EXPECT_EQ(b, 20u);
}

// --- locality through narrow lineage ---

std::vector<uint64_t> TasksPicked(EngineHarness& h) {
  std::vector<uint64_t> picked;
  for (NodeId id : h.node_ids()) {
    picked.push_back(h.ctx().GetNodeState(id)->tasks_picked.load());
  }
  return picked;
}

void ResetTasksPicked(EngineHarness& h) {
  for (NodeId id : h.node_ids()) {
    h.ctx().GetNodeState(id)->tasks_picked.store(0);
  }
}

// Caches `rdd` on the first `owners` nodes only: the others are quarantined
// while it materializes, then released with zero credit spent.
template <typename T>
void CacheOnFirstNodes(EngineHarness& h, TypedRdd<T>& rdd, size_t owners) {
  for (size_t i = owners; i < h.node_ids().size(); ++i) {
    ASSERT_TRUE(h.ctx().SetNodeQuarantined(h.node_ids()[i], true));
  }
  rdd.Cache();
  ASSERT_TRUE(rdd.Materialize().ok());
  for (size_t i = owners; i < h.node_ids().size(); ++i) {
    ASSERT_TRUE(h.ctx().SetNodeQuarantined(h.node_ids()[i], false));
  }
}

// The index (into the schedulable set) of the node caching `key`.
std::optional<size_t> CachingNode(EngineHarness& h, const BlockKey& key) {
  const auto live = h.ctx().SchedulableNodeStates();
  for (size_t i = 0; i < live.size(); ++i) {
    if (live[i]->blocks->Contains(key)) {
      return i;
    }
  }
  return std::nullopt;
}

TEST(LocalityPlacementTest, IterationsAfterTheFirstReadNoRemoteCache) {
  // KMeans' shape: a cached source, then per iteration a MapPartitions over
  // it feeding a ReduceByKey. Iteration 0 caches the source wherever its
  // map tasks ran; every later map task must run on that node.
  EngineHarness h;
  std::vector<int> data(1600);
  std::iota(data.begin(), data.end(), 0);
  auto points = Parallelize(&h.ctx(), data, 16);
  points.Cache();
  EngineCounters& counters = h.ctx().counters();
  uint64_t reads_after_first = 0;
  uint64_t bytes_after_first = 0;
  for (int iter = 0; iter < 4; ++iter) {
    auto partials = points.MapPartitions([iter](const std::vector<int>& rows) {
      std::vector<std::pair<int, int>> out;
      for (int x : rows) {
        out.emplace_back((x + iter) % 8, 1);
      }
      return out;
    });
    auto counts = ReduceByKey(partials, 4, [](int a, int b) { return a + b; }).Collect();
    ASSERT_TRUE(counts.ok()) << counts.status().ToString();
    ASSERT_EQ(counts->size(), 8u);
    if (iter == 0) {
      reads_after_first = counters.remote_cache_reads.load();
      bytes_after_first = counters.remote_cache_read_bytes.load();
    }
  }
  EXPECT_EQ(counters.remote_cache_reads.load(), reads_after_first);
  EXPECT_EQ(counters.remote_cache_read_bytes.load(), bytes_after_first);
  EXPECT_GE(counters.tasks_placed_local.load(), 3u * 16u);
}

TEST(LocalityPlacementTest, RemoteCacheReadsAreCountedAndExported) {
  // Every partition is cached on node 0, which is then quarantined: each
  // read goes off-node and is counted with its bytes and its modelled
  // transfer time.
  EngineHarnessOptions options;
  options.model_latency = true;
  EngineHarness h(options);
  std::vector<int> data(4000);
  std::iota(data.begin(), data.end(), 0);
  auto source = Parallelize(&h.ctx(), data, 8);
  CacheOnFirstNodes(h, source, 1);
  ASSERT_TRUE(h.ctx().SetNodeQuarantined(h.node_ids()[0], true));

  ASSERT_TRUE(source.Map([](const int& x) { return x - 1; }).Collect().ok());
  const EngineCounters& counters = h.ctx().counters();
  EXPECT_EQ(counters.remote_cache_reads.load(), 8u);
  EXPECT_GE(counters.remote_cache_read_bytes.load(), data.size() * sizeof(int));
  EXPECT_EQ(counters.tasks_placed_local.load(), 0u);

  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  // Cumulative durations are counters, like every other monotonic series.
  for (const char* name :
       {"flint_engine_remote_cache_reads", "flint_engine_remote_cache_read_bytes",
        "flint_engine_remote_cache_wait_seconds", "flint_engine_tasks_placed_local",
        "flint_engine_compute_seconds", "flint_engine_acquisition_wait_seconds",
        "flint_engine_task_queue_wait_seconds", "flint_net_fetch_wait_seconds"}) {
    const auto it = std::find_if(snap.samples.begin(), snap.samples.end(),
                                 [name](const MetricSample& m) { return m.name == name; });
    ASSERT_NE(it, snap.samples.end()) << name;
    EXPECT_EQ(it->type, MetricType::kCounter) << name;
  }
  EXPECT_EQ(snap.Value("flint_engine_remote_cache_reads"), 8.0);
  EXPECT_GT(snap.Value("flint_engine_remote_cache_wait_seconds"), 0.0);
  EXPECT_EQ(snap.Value("flint_engine_remote_cache_wait_seconds"),
            h.ctx().latency().Seconds(Layer::kCacheRemote));
}

TEST(LocalityPlacementTest, CacheOnHalfTheNodesDoesNotPileUp) {
  // The storm shape: two survivors hold every cached partition, two cold
  // replacements hold none. The credit bound caps each node at one task
  // over its fair share; unbounded locality would give each survivor 8.
  EngineHarness h;
  std::vector<int> data(160);
  std::iota(data.begin(), data.end(), 0);
  auto source = Parallelize(&h.ctx(), data, 16);
  CacheOnFirstNodes(h, source, 2);
  ResetTasksPicked(h);

  auto out = source.Map([](const int& x) { return x + 1; }).Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), data.size());
  const std::vector<uint64_t> picked = TasksPicked(h);
  EXPECT_EQ(std::accumulate(picked.begin(), picked.end(), uint64_t{0}), 16u);
  for (size_t i = 0; i < picked.size(); ++i) {
    EXPECT_LE(picked[i], 16u / 4u + 1u) << "node " << i << " took too many tasks";
  }
  EXPECT_GT(h.ctx().counters().tasks_placed_local.load(), 0u);
}

TEST(LocalityPlacementTest, DegradedShareHoldsWhenEveryTaskPrefersTheDegradedNode) {
  // Every partition is cached on the half-health node; its 12/24/24 share
  // of 60 tasks must survive the preference (within the one task the first
  // bounded pick may shift).
  EngineHarnessOptions options;
  options.num_nodes = 3;
  EngineHarness h(options);
  std::vector<int> data(60);
  std::iota(data.begin(), data.end(), 0);
  auto source = Parallelize(&h.ctx(), data, 60);
  CacheOnFirstNodes(h, source, 1);
  h.ctx().SetNodeHealthScore(h.node_ids()[0], 0.5);
  ResetTasksPicked(h);

  ASSERT_TRUE(source.Map([](const int& x) { return x * 3; }).Collect().ok());
  const std::vector<uint64_t> picked = TasksPicked(h);
  EXPECT_NEAR(static_cast<double>(picked[0]), 12.0, 1.0);
  EXPECT_NEAR(static_cast<double>(picked[1]), 24.0, 1.0);
  EXPECT_NEAR(static_cast<double>(picked[2]), 24.0, 1.0);
  EXPECT_EQ(picked[0] + picked[1] + picked[2], 60u);
}

TEST(LocalityPlacementTest, SavedAncestorStopsTheWalk) {
  EngineHarness h;
  std::vector<int> data(40);
  std::iota(data.begin(), data.end(), 0);
  auto source = Parallelize(&h.ctx(), data, 4);
  source.Cache();
  ASSERT_TRUE(source.Materialize().ok());
  auto mid = source.Map([](const int& x) { return x + 1; });
  auto child = mid.Map([](const int& x) { return x * 2; });

  const auto live = h.ctx().SchedulableNodeStates();
  for (int p = 0; p < 4; ++p) {
    const auto owner = CachingNode(h, {source.raw()->id(), p});
    ASSERT_TRUE(owner.has_value());
    EXPECT_EQ(LineagePreferredNode(child.raw(), p, live), owner) << "partition " << p;
  }
  // Once `mid` is checkpointed, a task below it restores from the DFS: the
  // cached source is no longer on its read path.
  ASSERT_TRUE(mid.raw()->MarkForCheckpoint());
  mid.raw()->SetCheckpointSaved();
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(LineagePreferredNode(child.raw(), p, live), std::nullopt) << "partition " << p;
  }
}

TEST(LocalityPlacementTest, UnionRightPartitionsPreferTheirOwnCache) {
  // 3 + 5 partitions over 4 nodes: union partition 3 + k reads right
  // partition k, which round-robin caching put on a different node than
  // right partition 3 + k (or none, past the end).
  EngineHarness h;
  std::vector<int> data(80);
  std::iota(data.begin(), data.end(), 0);
  auto left = Parallelize(&h.ctx(), data, 3);
  auto right = Parallelize(&h.ctx(), data, 5).Map([](const int& x) { return -x; });
  left.Cache();
  right.Cache();
  ASSERT_TRUE(left.Materialize().ok());
  ASSERT_TRUE(right.Materialize().ok());
  auto both = Union(left, right).Map([](const int& x) { return x * 7; });

  const auto live = h.ctx().SchedulableNodeStates();
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(LineagePreferredNode(both.raw(), k, live), CachingNode(h, {left.raw()->id(), k}))
        << "left partition " << k;
  }
  for (int k = 0; k < 5; ++k) {
    const auto owner = CachingNode(h, {right.raw()->id(), k});
    ASSERT_TRUE(owner.has_value());
    EXPECT_EQ(LineagePreferredNode(both.raw(), 3 + k, live), owner) << "right partition " << k;
  }
}

// --- execution-start deadlines ---

// Records the service-time samples the scheduler reports to observers; with
// execution-start stamping these must exclude executor-queue wait.
class ServiceTimeRecorder : public EngineObserver {
 public:
  void OnTaskAttemptFinished(NodeId node, double seconds, double stage_p50_seconds,
                             bool success) override {
    (void)node;
    (void)stage_p50_seconds;
    if (success) {
      MutexLock lock(&mutex_);
      samples_.push_back(seconds);
    }
  }

  std::vector<double> samples() const {
    MutexLock lock(&mutex_);
    return samples_;
  }

 private:
  mutable Mutex mutex_{"ServiceTimeRecorder::mutex_"};
  std::vector<double> samples_ GUARDED_BY(mutex_);
};

TEST(ExecStartDeadlineTest, ServiceTimesExcludeQueueWait) {
  // One single-threaded node, eight 20 ms tasks: the last task waits ~140 ms
  // in queue but occupies the executor for only ~20 ms. Stamped service
  // times must reflect the 20, not the 160.
  EngineHarnessOptions options;
  options.num_nodes = 1;
  EngineHarness h(options);
  ServiceTimeRecorder recorder;
  h.ctx().AddObserver(&recorder);

  constexpr int kTasks = 8;
  constexpr int kTaskMs = 20;
  std::vector<int> data(kTasks);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, kTasks).Map([kTaskMs](const int& x) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kTaskMs));
    return x;
  });
  ASSERT_TRUE(rdd.Collect().ok());
  h.ctx().DrainExecutors();
  h.ctx().RemoveObserver(&recorder);

  const std::vector<double> samples = recorder.samples();
  ASSERT_EQ(samples.size(), static_cast<size_t>(kTasks));
#if FLINT_TIMING_ASSERTS
  // Every sample ~= one task's compute. Without the stamp the fallback
  // already bounds this via node-progress, but the stamp must not regress
  // it; 3x leaves slack for scheduling noise.
  for (double s : samples) {
    EXPECT_LT(s, 3.0 * kTaskMs / 1000.0) << "service time includes queue wait";
    EXPECT_GT(s, 0.0);
  }
#endif
  // The queue-wait the stamp subtracted is now accounted explicitly. With 8
  // serialized tasks the waits sum to ~(1+2+...+7)*20 ms; any positive value
  // proves the stamp (not inference) supplied the start times.
  EXPECT_GT(h.ctx().counters().task_queue_wait_nanos.load(), int64_t{0});
}

TEST(ExecStartDeadlineTest, QueuedTasksAreNotSpeculatedOnAHealthyNode) {
  // Deep queue on a healthy (but busy) 2-node cluster with tight deadlines:
  // execution-start measurement means queue depth alone must not trigger
  // deadline misses or speculative duplicates.
  EngineHarnessOptions options;
  options.num_nodes = 2;
  options.speculation.enabled = true;
  options.speculation.quorum = 3;
  options.speculation.spec_multiplier = 3.0;
  options.speculation.min_deadline_seconds = 0.05;
  EngineHarness h(options);

  constexpr int kTasks = 24;
  std::vector<int> data(kTasks);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, kTasks).Map([](const int& x) {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    return x;
  });
  ASSERT_TRUE(rdd.Collect().ok());

  // 12 queued tasks per node at 15 ms each: total queue wait far exceeds the
  // 50 ms deadline floor, yet no attempt may look expired while queued.
  EXPECT_EQ(h.ctx().counters().task_deadline_misses.load(), 0u);
  EXPECT_EQ(h.ctx().counters().tasks_speculated.load(), 0u);
}

}  // namespace
}  // namespace flint
