// Task placement + execution-start deadlines: PickNode deals tasks by plain
// round-robin over the schedulable nodes (health only quarantines, it never
// weights); it prefers the node holding the most bytes of the task's
// cached input, but only within one round of credit, so locality never
// overrides the even shares; a stage's tasks with no cached ancestor are
// dealt one per node first, so a failover's restores spread over the
// cluster instead of queueing on the cold replacement; a scheduled task's
// remote cache read moves the block to the reader when the reader holds
// fewer blocks of its RDD and the block fits there without evicting; and attempt
// deadlines/service times run from the executor's own execution-start
// stamp, so queue wait on a busy node neither inflates the runtime
// quantiles nor counts against deadlines.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/checkpoint/ft_manager.h"
#include "src/core/node_manager.h"
#include "src/engine/context.h"
#include "src/engine/dag_scheduler.h"
#include "src/engine/task_context.h"
#include "src/engine/typed_rdd.h"
#include "src/engine/typed_rdd_ops.h"
#include "src/market/marketplace.h"
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
  std::vector<int64_t> credits(3, 0);
  std::vector<size_t> picks;
  for (int i = 0; i < 9; ++i) {
    picks.push_back(SwrrPick(credits));
  }
  const std::vector<size_t> expect{0, 1, 2, 0, 1, 2, 0, 1, 2};
  EXPECT_EQ(picks, expect);
}

TEST(SwrrPickTest, DeterministicAcrossRuns) {
  std::vector<int64_t> credits_a{0, 2, -1, 0};
  std::vector<int64_t> credits_b = credits_a;
  for (int i = 0; i < 100; ++i) {
    const std::optional<size_t> preferred =
        i % 3 == 0 ? std::optional<size_t>(static_cast<size_t>(i % 4)) : std::nullopt;
    EXPECT_EQ(SwrrPick(credits_a, preferred), SwrrPick(credits_b, preferred)) << "step " << i;
  }
  EXPECT_EQ(credits_a, credits_b);
}

TEST(SwrrPickTest, PreferenceWinsOnlyWithinOneRoundOfTheLeader) {
  // After the earn step the credits are {-4, 4, 0, 1}: index 1 leads, one
  // round is 4, so index 2 (4 behind) may take the pick and index 0 (8
  // behind) may not.
  std::vector<int64_t> credits{-5, 3, -1, 0};
  EXPECT_EQ(SwrrPick(credits, /*preferred=*/2), 2u);
  EXPECT_EQ(credits, (std::vector<int64_t>{-4, 4, -4, 1}));
  credits = {-5, 3, -1, 0};
  EXPECT_EQ(SwrrPick(credits, /*preferred=*/0), 1u);
  EXPECT_EQ(credits, (std::vector<int64_t>{-4, 0, 0, 1}));
}

TEST(SwrrPickTest, SkippedIndicesEarnButNeverWin) {
  std::vector<int64_t> credits{5, 0, -5};
  const std::vector<bool> skip{true, false, false};
  EXPECT_EQ(SwrrPick(credits, std::nullopt, skip), 1u);
  EXPECT_EQ(credits, (std::vector<int64_t>{6, -2, -4}));
  // A skipped preferred index loses to the leader of the rest.
  EXPECT_EQ(SwrrPick(credits, /*preferred=*/0, skip), 1u);
}

// --- round-robin placement through the scheduler ---

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

TEST(LocalityPlacementTest, EvenShareHoldsWhenEveryTaskPrefersOneNode) {
  // Every partition is cached on one node; the even 20/20/20 share of 60
  // tasks must survive the preference (within the one task the first
  // bounded pick may shift).
  EngineHarnessOptions options;
  options.num_nodes = 3;
  EngineHarness h(options);
  std::vector<int> data(60);
  std::iota(data.begin(), data.end(), 0);
  auto source = Parallelize(&h.ctx(), data, 60);
  CacheOnFirstNodes(h, source, 1);
  ResetTasksPicked(h);

  ASSERT_TRUE(source.Map([](const int& x) { return x * 3; }).Collect().ok());
  const std::vector<uint64_t> picked = TasksPicked(h);
  EXPECT_NEAR(static_cast<double>(picked[0]), 20.0, 1.0);
  EXPECT_NEAR(static_cast<double>(picked[1]), 20.0, 1.0);
  EXPECT_NEAR(static_cast<double>(picked[2]), 20.0, 1.0);
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

// Rows of a key-bucketed table over keys [0, keys): partition p holds the
// keys KeyPartitionOf routes to p, ascending, each `per_key` times.
std::function<std::vector<std::pair<int, int>>(int)> BucketRows(int parts, int keys,
                                                                int per_key) {
  return [parts, keys, per_key](int p) {
    std::vector<std::pair<int, int>> rows;
    for (int k = 0; k < keys; ++k) {
      for (int r = 0; r < per_key && KeyPartitionOf(k, parts) == p; ++r) {
        rows.emplace_back(k, r);
      }
    }
    return rows;
  };
}

// Caches partition p of `table` (rows from `rows`) on node `owner(p)` only.
void PinBlocks(EngineHarness& h, PairRdd<int, int>& table,
               const std::function<std::vector<std::pair<int, int>>(int)>& rows,
               const std::function<size_t(int)>& owner) {
  table.Cache();
  for (int p = 0; p < table.num_partitions(); ++p) {
    ASSERT_TRUE(h.ctx().StoreBlock({table.raw()->id(), p}, h.node_ids()[owner(p)],
                                   MakePartition(rows(p))));
  }
}

// Bytes of `table`'s cached blocks, summed over partitions and nodes.
uint64_t CachedBytes(EngineHarness& h, const PairRdd<int, int>& table) {
  uint64_t bytes = 0;
  for (const auto& node : h.ctx().LiveNodeStates()) {
    for (int p = 0; p < table.num_partitions(); ++p) {
      bytes += node->blocks->BlockBytes({table.raw()->id(), p});
    }
  }
  return bytes;
}

// Q12's shape after a failover over 4 nodes: a large cached table read
// through a Filter and a Map, and a small one read through a Map, both
// declared key-partitioned and joined in place. Partition p of the large
// table sits on node p and of the small one on node p + 1, so the walk meets
// the small block first, one level nearer the join.
struct FailedOverJoin {
  static constexpr int kParts = 4;
  static constexpr int kKeys = 64;
  static constexpr int kPerKey = 8;
  PairRdd<int, int> big;
  PairRdd<int, int> small;
  PairRdd<int, std::pair<int, int>> joined;

  explicit FailedOverJoin(EngineHarness& h)
      : big(Generate(&h.ctx(), kParts, BucketRows(kParts, kKeys, kPerKey), "big")),
        small(Generate(&h.ctx(), kParts, BucketRows(kParts, kKeys, 1), "small")),
        joined(Join(KeyPartitioned(big.Filter([](const std::pair<int, int>& r) {
                                          return r.second % 2 == 0;
                                        }).Map([](const std::pair<int, int>& r) { return r; })),
                    KeyPartitioned(small.Map([](const std::pair<int, int>& r) {
                      return std::make_pair(r.first, -r.first);
                    })),
                    kParts)) {}

  void Pin(EngineHarness& h) {
    PinBlocks(h, big, BucketRows(kParts, kKeys, kPerKey), [](int p) { return p; });
    PinBlocks(h, small, BucketRows(kParts, kKeys, 1), [](int p) { return (p + 1) % kParts; });
  }
};

TEST(LocalityPlacementTest, JoinPrefersItsLargeInputOverANearerSmallOne) {
  EngineHarness h;
  FailedOverJoin q(h);
  q.Pin(h);
  ASSERT_GT(CachedBytes(h, q.big), 4 * CachedBytes(h, q.small));
  const auto live = h.ctx().SchedulableNodeStates();
  for (int p = 0; p < FailedOverJoin::kParts; ++p) {
    EXPECT_EQ(LineagePreferredNode(q.joined.raw(), p, live), std::optional<size_t>(p))
        << "partition " << p;
  }
}

TEST(LocalityPlacementTest, JoinOfEqualInputsPrefersItsLeftInput) {
  // Equal bytes on two nodes: the tie goes to the node the walk credited
  // first, the left input's.
  EngineHarness h;
  constexpr int kParts = 4;
  const auto rows = BucketRows(kParts, 32, 2);
  auto left = Generate(&h.ctx(), kParts, rows, "left");
  auto right = Generate(&h.ctx(), kParts, rows, "right");
  PinBlocks(h, left, rows, [](int p) { return (p + 2) % kParts; });
  PinBlocks(h, right, rows, [](int p) { return p; });
  auto joined = Join(KeyPartitioned(left), KeyPartitioned(right), kParts);
  const auto live = h.ctx().SchedulableNodeStates();
  for (int p = 0; p < kParts; ++p) {
    EXPECT_EQ(LineagePreferredNode(joined.raw(), p, live), CachingNode(h, {left.raw()->id(), p}))
        << "partition " << p;
  }
}

TEST(LocalityPlacementTest, FailedOverJoinReadsOnlyItsSmallInputRemotely) {
  // Every task runs on the node holding its large partition and reads only
  // the small one off-node: the remote bytes stay within the small table's.
  EngineHarness h;
  FailedOverJoin q(h);
  q.Pin(h);
  const EngineCounters& counters = h.ctx().counters();
  const uint64_t bytes_before = counters.remote_cache_read_bytes.load();
  auto out = q.joined.Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), size_t{FailedOverJoin::kKeys} * FailedOverJoin::kPerKey / 2);
  for (const auto& [key, values] : *out) {
    EXPECT_EQ(values.second, -key);
  }
  EXPECT_LE(counters.remote_cache_read_bytes.load() - bytes_before, CachedBytes(h, q.small));
  EXPECT_EQ(counters.tasks_placed_local.load(), size_t{FailedOverJoin::kParts});
}

// --- recovery placement: dealt homeless tasks and block moves ---

// Nodes whose BlockManager holds `key`, in id order.
std::vector<NodeId> Holders(EngineHarness& h, const BlockKey& key) {
  std::vector<NodeId> out;
  for (const auto& node : h.ctx().LiveNodeStates()) {
    if (node->blocks->Contains(key)) {
      out.push_back(node->info.node_id);
    }
  }
  return out;
}

// The registry's first location for `key`; -1 when it has none.
NodeId RegisteredLocation(EngineHarness& h, const BlockKey& key) {
  for (const auto& [k, node] : h.ctx().BlockRegistrySnapshot()) {
    if (k == key) {
      return node;
    }
  }
  return -1;
}

// Checkpoints `rdd` through the fault-tolerance manager's writers and waits
// for the commit.
void CheckpointAndWait(FaultToleranceManager& ft, const RddPtr& rdd) {
  ft.CheckpointRddNow(rdd);
  for (int i = 0; i < 400 && rdd->checkpoint_state() != CheckpointState::kSaved; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(rdd->checkpoint_state(), CheckpointState::kSaved);
}

CheckpointConfig ManualCheckpointConfig() {
  CheckpointConfig cfg;
  cfg.policy = CheckpointPolicyKind::kFlint;
  cfg.mttf_hours = 1.0;
  cfg.time.seconds_per_model_hour = 0.5;
  cfg.initial_delta_seconds = 0.001;
  return cfg;
}

TEST(RecoveryPlacementTest, FailoverRestoresLandOnDistinctNodes) {
  // The failover shape: 16 cached, checkpointed partitions over 4 nodes, one
  // node revoked with warning and replaced cold. Its 4 partitions are
  // homeless (no cached ancestor anywhere) and restore from the DFS; each
  // restore caches on the node that ran it. Undealt, the replacement, which
  // banks credit on every homed pick it loses, led the credits at each
  // homeless pick and ran 3 of the 4 restores back to back.
  EngineHarness h;
  FaultToleranceManager ft(&h.ctx(), ManualCheckpointConfig());
  std::vector<int> data(1600);
  std::iota(data.begin(), data.end(), 0);
  auto source = Parallelize(&h.ctx(), data, 16).Map([](const int& x) { return x + 1; });
  source.Cache();
  ASSERT_TRUE(source.Materialize().ok());
  CheckpointAndWait(ft, source.raw());

  const NodeId victim = h.node_ids()[0];
  std::vector<int> lost;
  for (int p = 0; p < 16; ++p) {
    if (h.ctx().GetNodeState(victim)->blocks->Contains({source.raw()->id(), p})) {
      lost.push_back(p);
    }
  }
  ASSERT_EQ(lost.size(), 4u);
  h.cluster().Revoke({victim}, /*with_warning=*/true);
  h.cluster().DrainEvents();
  h.AddNode();

  const uint64_t restores_before = h.ctx().counters().checkpoint_reads.load();
  auto out = source.Map([](const int& x) { return x * 2; }).Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), data.size());
  EXPECT_EQ(out->back(), 2 * 1600);
  EXPECT_EQ(h.ctx().counters().checkpoint_reads.load() - restores_before, 4u);

  std::vector<NodeId> restorers;
  for (int p : lost) {
    const std::vector<NodeId> holders = Holders(h, {source.raw()->id(), p});
    ASSERT_EQ(holders.size(), 1u) << "partition " << p;
    restorers.push_back(holders.front());
  }
  const std::set<NodeId> distinct(restorers.begin(), restorers.end());
  EXPECT_EQ(distinct.size(), restorers.size())
      << "restoring nodes " << ::testing::PrintToString(restorers);
}

TEST(RecoveryPlacementTest, RemoteReadMovesTheBlockToTheReader) {
  EngineHarnessOptions options;
  options.num_nodes = 2;
  EngineHarness h(options);
  const NodeId holder = h.node_ids()[0];
  const NodeId reader = h.node_ids()[1];
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto source = Parallelize(&h.ctx(), data, 1);
  CacheOnFirstNodes(h, source, 1);
  const BlockKey key{source.raw()->id(), 0};
  ASSERT_EQ(Holders(h, key), std::vector<NodeId>{holder});

  // The holder is benched, so the task runs on the reader and reads off-node.
  ASSERT_TRUE(h.ctx().SetNodeQuarantined(holder, true));
  ASSERT_TRUE(source.Map([](const int& x) { return x + 1; }).Collect().ok());
  const EngineCounters& counters = h.ctx().counters();
  EXPECT_EQ(counters.remote_cache_reads.load(), 1u);
  EXPECT_EQ(counters.cache_blocks_moved.load(), 1u);
  EXPECT_EQ(Holders(h, key), std::vector<NodeId>{reader});
  EXPECT_EQ(RegisteredLocation(h, key), reader);
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().Value("flint_engine_cache_blocks_moved"), 1.0);

  // With the holder back, the next task follows the block: a local read.
  ASSERT_TRUE(h.ctx().SetNodeQuarantined(holder, false));
  auto again = source.Map([](const int& x) { return x - 1; }).Collect();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->front(), -1);
  EXPECT_EQ(counters.remote_cache_reads.load(), 1u);
  EXPECT_EQ(counters.cache_blocks_moved.load(), 1u);
  EXPECT_EQ(Holders(h, key), std::vector<NodeId>{reader});
}

TEST(RecoveryPlacementTest, BlocksMoveOnlyTowardFewerBlocksOfTheirRdd) {
  // Each node holds one of the two partitions. A remote read by a node that
  // already holds as many blocks of the RDD as the source leaves the block
  // where it is, so a stolen pick between balanced holders costs one read,
  // not a chain of moves.
  EngineHarnessOptions options;
  options.num_nodes = 2;
  EngineHarness h(options);
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto source = Parallelize(&h.ctx(), data, 2);
  CacheOnFirstNodes(h, source, 2);
  const NodeId holder = h.node_ids()[0];
  ASSERT_EQ(h.ctx().GetNodeState(holder)->blocks->num_rdd_blocks(source.raw()->id()), 1u);
  ASSERT_EQ(h.ctx().GetNodeState(h.node_ids()[1])->blocks->num_rdd_blocks(source.raw()->id()), 1u);

  ASSERT_TRUE(h.ctx().SetNodeQuarantined(holder, true));
  auto out = source.Map([](const int& x) { return x + 1; }).Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->back(), 100);
  EXPECT_EQ(h.ctx().counters().remote_cache_reads.load(), 1u);
  EXPECT_EQ(h.ctx().counters().cache_blocks_moved.load(), 0u);
  for (int p = 0; p < 2; ++p) {
    EXPECT_EQ(Holders(h, {source.raw()->id(), p}).size(), 1u) << "partition " << p;
  }
  EXPECT_EQ(h.ctx().GetNodeState(holder)->blocks->num_rdd_blocks(source.raw()->id()), 1u);
}

TEST(RecoveryPlacementTest, CheckpointWriterReadNeverMovesABlock) {
  // Every partition is cached on node 0; checkpoint writers run round-robin
  // over all four nodes, so most of their reads are remote. A background
  // writer is not where the next task runs: the blocks stay put.
  EngineHarness h;
  FaultToleranceManager ft(&h.ctx(), ManualCheckpointConfig());
  std::vector<int> data(800);
  std::iota(data.begin(), data.end(), 0);
  auto source = Parallelize(&h.ctx(), data, 8);
  CacheOnFirstNodes(h, source, 1);
  CheckpointAndWait(ft, source.raw());
  h.ctx().DrainExecutors();

  EXPECT_GT(h.ctx().counters().remote_cache_reads.load(), 0u);
  EXPECT_EQ(h.ctx().counters().cache_blocks_moved.load(), 0u);
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(Holders(h, {source.raw()->id(), p}), std::vector<NodeId>{h.node_ids()[0]})
        << "partition " << p;
  }
}

TEST(RecoveryPlacementTest, DrainingReaderNeverTakesABlock) {
  EngineHarness h;
  const NodeId holder = h.node_ids()[0];
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto source = Parallelize(&h.ctx(), data, 4);
  CacheOnFirstNodes(h, source, 1);

  // A scheduled attempt (it holds a cancel token) still running on a warned
  // node reads a block off the holder: it gets the data, not the block.
  const std::shared_ptr<NodeState> warned = h.ctx().GetNodeState(h.node_ids()[1]);
  h.ctx().OnNodeWarning(warned->info);
  TaskContext tc(&h.ctx(), warned, MakeCancelToken());
  auto part = tc.GetPartition(source.raw(), 0);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  EXPECT_EQ((*part)->NumRecords(), 25u);
  EXPECT_EQ(h.ctx().counters().remote_cache_reads.load(), 1u);
  EXPECT_EQ(h.ctx().counters().cache_blocks_moved.load(), 0u);
  EXPECT_EQ(Holders(h, {source.raw()->id(), 0}), std::vector<NodeId>{holder});
}

TEST(RecoveryPlacementTest, LiveReadersLeaveBlocksOnADrainingNode) {
  // During the warning window the holder serves its cache but takes no new
  // task; its blocks stay there and are lost with it.
  EngineHarness h;
  const NodeId holder = h.node_ids()[0];
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto source = Parallelize(&h.ctx(), data, 4);
  CacheOnFirstNodes(h, source, 1);
  h.ctx().OnNodeWarning(h.ctx().GetNodeState(holder)->info);

  auto out = source.Map([](const int& x) { return x * 5; }).Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->back(), 495);
  EXPECT_EQ(h.ctx().counters().remote_cache_reads.load(), 4u);
  EXPECT_EQ(h.ctx().counters().cache_blocks_moved.load(), 0u);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(Holders(h, {source.raw()->id(), p}), std::vector<NodeId>{holder})
        << "partition " << p;
  }
}

TEST(RecoveryPlacementTest, MoveNeverEvictsFromAFullReader) {
  // The reader's one-shard cache is full with four blocks of its own. A
  // remote read that took a fifth would evict one of them (dropped, to be
  // recomputed later): the reader gets the data, not the block.
  std::vector<int> data(400);
  std::iota(data.begin(), data.end(), 0);
  const uint64_t block_bytes = MakePartition(std::vector<int>(100))->SizeBytes();
  EngineHarnessOptions options;
  options.num_nodes = 2;
  options.node_memory = 4 * block_bytes + block_bytes / 2;
  options.block_shards = 1;
  EngineHarness h(options);
  const NodeId holder = h.node_ids()[0];
  const NodeId reader = h.node_ids()[1];
  auto source = Parallelize(&h.ctx(), std::vector<int>(data.begin(), data.begin() + 100), 1);
  CacheOnFirstNodes(h, source, 1);
  ASSERT_TRUE(h.ctx().SetNodeQuarantined(holder, true));
  auto own = Parallelize(&h.ctx(), data, 4);
  own.Cache();
  ASSERT_TRUE(own.Materialize().ok());
  const BlockKey key{source.raw()->id(), 0};
  ASSERT_EQ(Holders(h, key), std::vector<NodeId>{holder});
  ASSERT_EQ(h.ctx().GetNodeState(reader)->blocks->num_memory_blocks(), 4u);

  auto out = source.Map([](const int& x) { return x + 1; }).Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->back(), 100);
  EXPECT_EQ(h.ctx().counters().remote_cache_reads.load(), 1u);
  EXPECT_EQ(h.ctx().counters().cache_blocks_moved.load(), 0u);
  EXPECT_EQ(Holders(h, key), std::vector<NodeId>{holder});
  EXPECT_EQ(h.ctx().GetNodeState(reader)->blocks->metrics().Value("flint_block_evictions"), 0.0);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(Holders(h, {own.raw()->id(), p}), std::vector<NodeId>{reader}) << "partition " << p;
  }
}

TEST(RecoveryPlacementTest, FaultFreeKMeansKeepsFullHealthAndItsHomedTasks) {
  // KMeans' shape, fault-free, with the node manager judging every attempt.
  // Host noise makes no attempt late by the speculation deadline, so every
  // node stays at full health, and every holder runs all of its homed map
  // tasks each iteration: no block is read remotely after the first
  // iteration, and none moves.
  EngineHarness h;
  Marketplace market({testing::MakeSpikyMarket("m0", 1.0, 0.2, 0.2, 24, 0, 0)},
                     /*on_demand_price=*/1.0, /*seed=*/7);
  NodeManager nm(&h.ctx(), &market, /*ft=*/nullptr, NodeManagerConfig{});
  std::vector<int> data(1600);
  std::iota(data.begin(), data.end(), 0);
  auto points = Parallelize(&h.ctx(), data, 16);
  points.Cache();
  EngineCounters& counters = h.ctx().counters();
  uint64_t reads_after_first = 0;
  for (int iter = 0; iter < 10; ++iter) {
    auto partials = points.MapPartitions([iter](const std::vector<int>& rows) {
      std::vector<std::pair<int, int>> out;
      for (int x : rows) {
        out.emplace_back((x + iter) % 32, 1);
      }
      return out;
    });
    auto counts = ReduceByKey(partials, 16, [](int a, int b) { return a + b; }).Collect();
    ASSERT_TRUE(counts.ok()) << counts.status().ToString();
    ASSERT_EQ(counts->size(), 32u);
    if (iter == 0) {
      reads_after_first = counters.remote_cache_reads.load();
    }
  }
  h.ctx().DrainExecutors();
  for (NodeId id : h.node_ids()) {
    EXPECT_EQ(nm.HealthScore(id), 1.0) << "node " << id;
  }
  EXPECT_EQ(nm.metrics().Value("flint_node_quarantines"), 0.0);
  EXPECT_EQ(counters.remote_cache_reads.load(), reads_after_first);
  EXPECT_EQ(counters.cache_blocks_moved.load(), 0u);
}

// --- execution-start deadlines ---

// Records the service-time samples the scheduler reports to observers; with
// execution-start stamping these must exclude executor-queue wait.
class ServiceTimeRecorder : public EngineObserver {
 public:
  void OnTaskJudged(NodeId node, double seconds, bool on_time) override {
    (void)node;
    (void)on_time;
    MutexLock lock(&mutex_);
    samples_.push_back(seconds);
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
