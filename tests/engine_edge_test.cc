// Edge cases and stress shapes for the engine: degenerate sizes, deep
// lineage, nested shuffles, unpersist interplay with checkpoints, single-node
// clusters, and parameterized workload sweeps.

#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "src/checkpoint/ft_manager.h"
#include "src/engine/shuffle_manager.h"
#include "src/engine/typed_rdd_ops.h"
#include "src/obs/metrics.h"
#include "src/workloads/kmeans.h"
#include "src/workloads/pagerank.h"
#include "tests/test_util.h"

namespace flint {
namespace {

using testing::EngineHarness;

// Regression for the registration-sentinel bug: RegisterShuffle used
// outputs.empty() as "not yet registered", so a zero-map shuffle (whose
// outputs vector is legitimately empty forever) was re-initialized on every
// call, and a repeat registration with a different shape silently clobbered
// num_reduces under live map outputs.
TEST(ShuffleRegistryTest, ZeroMapShuffleIsCompleteAndFetchable) {
  ShuffleManager sm;
  sm.RegisterShuffle(7, /*num_maps=*/0, /*num_reduces=*/3);
  EXPECT_TRUE(sm.IsComplete(7));
  EXPECT_TRUE(sm.MissingMaps(7).empty());
  auto buckets = sm.Fetch(7, 0);
  ASSERT_TRUE(buckets.ok()) << buckets.status().ToString();
  EXPECT_TRUE(buckets->empty());
  // Identical repeat registrations are idempotent, not re-initializations.
  sm.RegisterShuffle(7, 0, 3);
  sm.RegisterShuffle(7, 0, 3);
  EXPECT_EQ(sm.NumShuffles(), 1u);
  EXPECT_TRUE(sm.IsComplete(7));
}

TEST(ShuffleRegistryTest, ConflictingReregistrationKeepsFirstShape) {
  ShuffleManager sm;
  sm.RegisterShuffle(1, /*num_maps=*/2, /*num_reduces=*/2);
  sm.RegisterShuffle(1, /*num_maps=*/5, /*num_reduces=*/9);  // differing duplicate
  EXPECT_EQ(sm.metrics().Value("flint_shuffle_reregistered"), 1.0);
  // First registration wins: still 2 map slots, not 5.
  EXPECT_EQ(sm.MissingMaps(1).size(), 2u);
  sm.RegisterShuffle(1, 2, 2);  // identical duplicate: clean no-op
  EXPECT_EQ(sm.metrics().Value("flint_shuffle_reregistered"), 1.0);
}

TEST(ShuffleRegistryTest, UnknownShuffleFetchIsDataLossAndCounted) {
  ShuffleManager sm;
  EXPECT_FALSE(sm.IsComplete(99));
  auto buckets = sm.Fetch(99, 0);
  EXPECT_FALSE(buckets.ok());
  EXPECT_EQ(sm.metrics().Value("flint_shuffle_fetch_waits"), 1.0);
}

TEST(EngineEdgeTest, EmptyRddThroughFullPipeline) {
  EngineHarness h;
  auto empty = Parallelize(&h.ctx(), std::vector<std::pair<int, int>>{}, 3);
  auto reduced = ReduceByKey(empty, 2, [](int a, int b) { return a + b; });
  auto out = reduced.Collect();
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  auto joined = Join(empty, empty, 2);
  auto count = joined.Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST(EngineEdgeTest, SinglePartitionSingleNode) {
  EngineHarness h{testing::EngineHarnessOptions{.num_nodes = 1}};
  std::vector<int> data(50);
  std::iota(data.begin(), data.end(), 1);
  auto sum = Parallelize(&h.ctx(), data, 1).Reduce([](int a, int b) { return a + b; });
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 50 * 51 / 2);
}

TEST(EngineEdgeTest, MorePartitionsThanRecords) {
  EngineHarness h;
  auto rdd = Parallelize(&h.ctx(), std::vector<int>{1, 2, 3}, 10);
  auto out = rdd.Collect();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, (std::vector<int>{1, 2, 3}));
}

TEST(EngineEdgeTest, DeepNarrowLineageRecomputesCorrectly) {
  EngineHarness h;
  std::vector<int64_t> data(200);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, 4);
  // 30 chained maps; nothing cached, so every action replays the chain.
  for (int i = 0; i < 30; ++i) {
    rdd = rdd.Map([](const int64_t& x) { return x + 1; });
  }
  auto out = rdd.Collect();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->front(), 30);
  EXPECT_EQ(out->back(), 229);
  // Survives a revocation too (pure recomputation, no cache).
  h.RevokeNodes(2);
  auto again = rdd.Collect();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *out);
}

TEST(EngineEdgeTest, NestedShufflesThreeDeep) {
  EngineHarness h;
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 600; ++i) {
    data.emplace_back(i % 30, 1);
  }
  // counts by key -> re-key by count -> histogram of counts -> distinct.
  auto counts = ReduceByKey(Parallelize(&h.ctx(), data, 6), 4,
                            [](int a, int b) { return a + b; });
  auto histogram = ReduceByKey(
      counts.Map([](const std::pair<int, int>& kv) { return std::make_pair(kv.second, 1); }), 3,
      [](int a, int b) { return a + b; });
  auto out = histogram.Collect();
  ASSERT_TRUE(out.ok());
  // Every key appears exactly 600/30 = 20 times, so one histogram bucket.
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->front().first, 20);
  EXPECT_EQ(out->front().second, 30);
}

TEST(EngineEdgeTest, UnpersistThenCheckpointedReadStillWorks) {
  EngineHarness h;
  CheckpointConfig cfg;
  cfg.policy = CheckpointPolicyKind::kFlint;
  cfg.mttf_hours = 1.0;
  cfg.time.seconds_per_model_hour = 0.5;
  cfg.initial_delta_seconds = 0.001;
  FaultToleranceManager ft(&h.ctx(), cfg);
  std::vector<int> data(400);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, 4).Map([](const int& x) { return x * 2; });
  rdd.Cache();
  ASSERT_TRUE(rdd.Materialize().ok());
  ft.CheckpointRddNow(rdd.raw());
  for (int i = 0; i < 200 && rdd.raw()->checkpoint_state() != CheckpointState::kSaved; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(rdd.raw()->checkpoint_state(), CheckpointState::kSaved);
  // Unpersist drops the cache; reads must come from the checkpoint.
  rdd.Unpersist();
  const uint64_t reads_before = h.ctx().counters().checkpoint_reads.load();
  auto out = rdd.Collect();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->back(), 798);
  EXPECT_GT(h.ctx().counters().checkpoint_reads.load(), reads_before);
}

TEST(EngineEdgeTest, CacheHitCountersMoveOnSecondAction) {
  EngineHarness h;
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, 4);
  rdd.Cache();
  ASSERT_TRUE(rdd.Materialize().ok());
  const uint64_t hits_before = h.ctx().counters().cache_hits.load();
  ASSERT_TRUE(rdd.Count().ok());
  EXPECT_GT(h.ctx().counters().cache_hits.load(), hits_before);
}

// Only RDDs that ask to be cached are looked up in the cache, so the hit
// ratio reads cache health, not plan shape: a chain of uncached RDDs counts
// neither hits nor misses, and a cached one counts a miss per partition on
// its first read and a hit per partition after.
TEST(EngineEdgeTest, OnlyCachedRddsCountCacheLookups) {
  EngineHarness h;
  const EngineCounters& counters = h.ctx().counters();
  auto source = Generate(&h.ctx(), 4, [](int p) { return std::vector<int>(50, p); });
  auto doubled = source.Map([](const int& x) { return x * 2; });
  ASSERT_TRUE(doubled.Map([](const int& x) { return x + 1; }).Count().ok());
  EXPECT_EQ(counters.cache_hits.load(), 0u);
  EXPECT_EQ(counters.cache_misses.load(), 0u);

  doubled.Cache();
  ASSERT_TRUE(doubled.Count().ok());
  EXPECT_EQ(counters.cache_hits.load(), 0u);
  EXPECT_EQ(counters.cache_misses.load(), 4u);
  ASSERT_TRUE(doubled.Map([](const int& x) { return x + 1; }).Count().ok());
  EXPECT_EQ(counters.cache_hits.load(), 4u);
  EXPECT_EQ(counters.cache_misses.load(), 4u);
}

// A task stores its computed block only while the RDD asks to be cached.
// If Unpersist runs between that check and the block's registration, the
// store must not outlive it. Here the store evicts an 8 MiB block to spill,
// and the modelled spill write (400 MiB/s, ~20 ms) runs after the block
// entered memory and before its location is registered; Unpersist runs in
// that window, as soon as the spill is counted. Afterwards no node holds
// the block and the registry lists no location for it, and the RDD cached
// again reads the same rows.
TEST(EngineEdgeTest, BlockStoredWhileUnpersistRunsIsErased) {
  testing::EngineHarnessOptions options;
  options.num_nodes = 1;
  options.node_memory = 10 * kMiB;
  options.block_shards = 1;
  options.eviction = EvictionMode::kSpill;
  options.model_latency = true;
  options.origin_read_bandwidth_bytes_per_s = 1e15;
  EngineHarness h(options);
  auto ints = [](int n) {
    return [n](int) {
      std::vector<int> rows(static_cast<size_t>(n));
      std::iota(rows.begin(), rows.end(), 0);
      return rows;
    };
  };
  auto filler = Generate(&h.ctx(), 1, ints(2 << 20));
  filler.Cache();
  ASSERT_TRUE(filler.Materialize().ok());
  auto rdd = Generate(&h.ctx(), 1, ints(1 << 20));
  rdd.Cache();
  std::shared_ptr<NodeState> node = h.ctx().LiveNodeStates().front();

  std::thread unpersister([&] {
    while (node->blocks->metrics().Value("flint_block_spills") == 0) {
      std::this_thread::yield();
    }
    rdd.Unpersist();
  });
  TaskContext tc(&h.ctx(), node, MakeCancelToken());
  auto part = tc.GetPartition(rdd.raw(), 0);
  unpersister.join();
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  const std::vector<int> rows = Rows<int>(**part);
  ASSERT_EQ(rows, ints(1 << 20)(0));

  const BlockKey key{rdd.raw()->id(), 0};
  EXPECT_FALSE(h.ctx().BlockAvailable(key));
  EXPECT_FALSE(node->blocks->Contains(key));
  EXPECT_EQ(node->blocks->Get(key), nullptr);
  rdd.Cache();
  auto again = rdd.Collect();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, rows);
}

TEST(EngineEdgeTest, OutOfRangePartitionIsRejected) {
  EngineHarness h;
  auto rdd = Parallelize(&h.ctx(), std::vector<int>{1}, 1);
  ASSERT_TRUE(rdd.Materialize().ok());
  // Reach into the task layer directly.
  auto nodes = h.ctx().LiveNodeStates();
  ASSERT_FALSE(nodes.empty());
  TaskContext tc(&h.ctx(), nodes.front());
  EXPECT_EQ(tc.GetPartition(rdd.raw(), 7).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tc.GetPartition(rdd.raw(), -1).status().code(), StatusCode::kInvalidArgument);
}

// --- parameterized workload sweeps ---

struct WorkloadCase {
  int scale;
  int partitions;
  uint64_t seed;
};

class WorkloadSweep : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(WorkloadSweep, PageRankRankSumIsStableAcrossPartitioning) {
  const WorkloadCase c = GetParam();
  PageRankParams base;
  base.num_vertices = 200 * c.scale;
  base.edges_per_vertex = 5;
  base.iterations = 2;
  base.seed = c.seed;
  base.partitions = 2;
  PageRankParams repartitioned = base;
  repartitioned.partitions = c.partitions;
  EngineHarness h1;
  EngineHarness h2;
  auto a = RunPageRank(h1.ctx(), base);
  auto b = RunPageRank(h2.ctx(), repartitioned);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same graph statistics regardless of partitioning is NOT guaranteed (the
  // generator is partition-seeded), but rank mass must be positive and
  // finite, and top ranks sorted.
  EXPECT_GT(a->rank_sum, 0.0);
  EXPECT_GT(b->rank_sum, 0.0);
  for (size_t i = 1; i < b->top.size(); ++i) {
    EXPECT_GE(b->top[i - 1].second, b->top[i].second);
  }
}

TEST_P(WorkloadSweep, KMeansConvergesForAllShapes) {
  const WorkloadCase c = GetParam();
  KMeansParams p;
  p.num_points = 500 * c.scale;
  p.k = 3;
  p.partitions = c.partitions;
  p.iterations = 3;
  p.seed = c.seed;
  EngineHarness h;
  auto r = RunKMeans(h.ctx(), p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->centroids.size(), 3u);
  EXPECT_GT(r->inertia, 0.0);
  EXPECT_TRUE(std::isfinite(r->inertia));
}

INSTANTIATE_TEST_SUITE_P(Shapes, WorkloadSweep,
                         ::testing::Values(WorkloadCase{1, 1, 1}, WorkloadCase{1, 7, 2},
                                           WorkloadCase{3, 4, 3}, WorkloadCase{5, 12, 4}));

}  // namespace
}  // namespace flint
