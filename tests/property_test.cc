// Property-style parameterized suites (TEST_P) over randomized inputs:
// engine shuffle correctness against driver-side references, block-manager
// invariants under random workloads, billing invariants over random traces,
// statistics invariants, and the Daly-optimality property on a grid.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "src/checkpoint/checkpoint_policy.h"
#include "src/common/latency.h"
#include "src/common/stats.h"
#include "src/engine/block_manager.h"
#include "src/engine/typed_rdd.h"
#include "src/market/spot_market.h"
#include "tests/test_util.h"

namespace flint {
namespace {

// --- ReduceByKey equivalence over (size, partitions, reducers, seed) ---

struct ShuffleCase {
  int records;
  int partitions;
  int reducers;
  uint64_t seed;
};

class ShuffleProperty : public ::testing::TestWithParam<ShuffleCase> {};

TEST_P(ShuffleProperty, ReduceByKeyMatchesReference) {
  const ShuffleCase c = GetParam();
  testing::EngineHarness h;
  Rng rng(c.seed);
  std::vector<std::pair<int, int64_t>> data;
  data.reserve(static_cast<size_t>(c.records));
  for (int i = 0; i < c.records; ++i) {
    data.emplace_back(static_cast<int>(rng.UniformInt(37)),
                      static_cast<int64_t>(rng.UniformInt(1000)));
  }
  std::map<int, int64_t> expect;
  for (const auto& [k, v] : data) {
    expect[k] += v;
  }
  auto out = ReduceByKey(Parallelize(&h.ctx(), data, c.partitions), c.reducers,
                         [](int64_t a, int64_t b) { return a + b; })
                 .Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  std::map<int, int64_t> got(out->begin(), out->end());
  EXPECT_EQ(got, expect);
}

TEST_P(ShuffleProperty, GroupByKeyPreservesEveryValue) {
  const ShuffleCase c = GetParam();
  testing::EngineHarness h;
  Rng rng(c.seed ^ 0xf00dULL);
  std::vector<std::pair<int, int64_t>> data;
  for (int i = 0; i < c.records; ++i) {
    data.emplace_back(static_cast<int>(rng.UniformInt(11)), i);
  }
  auto out = GroupByKey(Parallelize(&h.ctx(), data, c.partitions), c.reducers).Collect();
  ASSERT_TRUE(out.ok());
  size_t total = 0;
  for (const auto& [k, vs] : *out) {
    total += vs.size();
  }
  EXPECT_EQ(total, data.size());
}

TEST_P(ShuffleProperty, ResultsIdenticalAfterMidJobRevocation) {
  const ShuffleCase c = GetParam();
  testing::EngineHarness reference;
  testing::EngineHarness chaos_cluster;
  Rng rng(c.seed ^ 0xbeefULL);
  std::vector<std::pair<int, int64_t>> data;
  for (int i = 0; i < c.records; ++i) {
    data.emplace_back(static_cast<int>(rng.UniformInt(23)), i % 101);
  }
  auto run = [&](testing::EngineHarness& h) {
    auto base = Parallelize(&h.ctx(), data, c.partitions);
    base.Cache();
    return ReduceByKey(base, c.reducers, [](int64_t a, int64_t b) { return a + b; }).Collect();
  };
  auto expect = run(reference);
  ASSERT_TRUE(expect.ok());
  std::thread chaos([&chaos_cluster] {
    chaos_cluster.RevokeNodes(2);
    chaos_cluster.AddNode();
  });
  auto got = run(chaos_cluster);
  chaos.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *expect);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShuffleProperty,
                         ::testing::Values(ShuffleCase{100, 1, 1, 1}, ShuffleCase{100, 4, 2, 2},
                                           ShuffleCase{1000, 8, 3, 3}, ShuffleCase{1000, 3, 8, 4},
                                           ShuffleCase{5000, 16, 5, 5},
                                           ShuffleCase{513, 7, 7, 6}));

// --- block manager invariants under random put/get sequences ---

class BlockManagerProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BlockManagerProperty, MemoryNeverExceedsBudgetAndGetsAreConsistent) {
  BlockManagerConfig config;
  config.memory_budget_bytes = 64 * kKiB;
  config.eviction = GetParam() % 2 == 0 ? EvictionMode::kDrop : EvictionMode::kSpill;
  BlockManager bm(config);
  Rng rng(GetParam());
  std::map<int, uint64_t> sizes;  // partition -> record count written
  for (int step = 0; step < 500; ++step) {
    const int part = static_cast<int>(rng.UniformInt(64));
    if (rng.Bernoulli(0.6)) {
      std::vector<int64_t> rows(32 + rng.UniformInt(256));
      sizes[part] = rows.size();
      bool stored = false;
      bm.Put(BlockKey{1, part}, MakePartition(std::move(rows)), &stored);
    } else {
      PartitionPtr got = bm.Get(BlockKey{1, part});
      if (got != nullptr) {
        // Whatever comes back must be the last write for that partition.
        ASSERT_TRUE(sizes.count(part) > 0);
        EXPECT_EQ(got->NumRecords(), sizes[part]);
      }
    }
    EXPECT_LE(bm.memory_used(), config.memory_budget_bytes);
  }
  if (config.eviction == EvictionMode::kDrop) {
    EXPECT_EQ(bm.num_spill_blocks(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockManagerProperty, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- lock-striped shards: eviction accounting is exact per shard ---

TEST(BlockManagerShardTest, EvictionAccountingIsExactAcrossShardCounts) {
  for (int shards : {1, 4}) {
    BlockManagerConfig config;
    config.memory_budget_bytes = 64 * kKiB;
    config.eviction = EvictionMode::kDrop;
    config.num_shards = shards;
    BlockManager bm(config);
    ASSERT_EQ(bm.num_shards(), static_cast<size_t>(shards));
    size_t stored_count = 0;
    size_t evicted = 0;
    for (int p = 0; p < 64; ++p) {
      std::vector<int64_t> rows(256);  // ~2 KiB: 64 blocks overflow the budget
      bool stored = false;
      evicted += bm.Put(BlockKey{7, p}, MakePartition(std::move(rows)), &stored).size();
      stored_count += stored ? 1 : 0;
      EXPECT_LE(bm.memory_used(), config.memory_budget_bytes);
    }
    // Keys are distinct, so every eviction removed exactly one resident block.
    EXPECT_EQ(bm.num_memory_blocks(), stored_count - evicted);
    EXPECT_GT(evicted, 0u);
    for (int p = 0; p < 64; ++p) {
      bm.Erase(BlockKey{7, p});
    }
    EXPECT_EQ(bm.memory_used(), 0u);
    EXPECT_EQ(bm.num_memory_blocks(), 0u);
  }
}

TEST(BlockManagerShardTest, SpilledBlocksStayReachableAcrossShards) {
  BlockManagerConfig config;
  config.memory_budget_bytes = 16 * kKiB;
  config.eviction = EvictionMode::kSpill;
  config.num_shards = 4;
  BlockManager bm(config);
  for (int p = 0; p < 32; ++p) {
    std::vector<int64_t> rows(128, p);  // ~1 KiB each, 32 KiB total
    bm.Put(BlockKey{3, p}, MakePartition(std::move(rows)), nullptr);
  }
  EXPECT_LE(bm.memory_used(), config.memory_budget_bytes);
  EXPECT_GT(bm.num_spill_blocks(), 0u);
  // Every block remains reachable and promotes back with correct contents;
  // promotion may cascade further per-shard evictions without losing data.
  for (int p = 0; p < 32; ++p) {
    PartitionPtr got = bm.Get(BlockKey{3, p});
    ASSERT_NE(got, nullptr) << "partition " << p;
    EXPECT_EQ(Rows<int64_t>(*got).front(), p);
  }
  EXPECT_LE(bm.memory_used(), config.memory_budget_bytes);
  bm.Clear();
  EXPECT_EQ(bm.memory_used() + bm.spill_used(), 0u);
  EXPECT_EQ(bm.num_memory_blocks() + bm.num_spill_blocks(), 0u);
}

// --- spill once: a promoted block keeps its disk copy ---

// A one-shard, spilling BlockManager with room for one `block_bytes` block,
// charging spill I/O to `latency`.
BlockManagerConfig OneBlockSpillConfig(uint64_t block_bytes) {
  BlockManagerConfig config;
  config.memory_budget_bytes = block_bytes + block_bytes / 2;
  config.eviction = EvictionMode::kSpill;
  config.num_shards = 1;
  return config;
}

PartitionPtr Block(int64_t fill) { return MakePartition(std::vector<int64_t>(128, fill)); }

TEST(BlockManagerSpillTest, EvictGetEvictChargesTheSpillWriteOnce) {
  LatencyModel latency(/*enabled=*/true);
  const PartitionPtr a = Block(1);
  BlockManager bm(OneBlockSpillConfig(a->SizeBytes()), &latency);
  const BlockKey ka{1, 0};
  const BlockKey kb{1, 1};
  const BlockKey kc{1, 2};
  auto spills = [&bm] { return bm.metrics().Value("flint_block_spills"); };

  bm.Put(ka, a, nullptr);
  bm.Put(kb, Block(2), nullptr);  // evicts a: the one write of its bytes
  EXPECT_EQ(spills(), 1.0);
  EXPECT_GT(latency.Seconds(Layer::kSpill), 0.0);
  ASSERT_EQ(bm.Get(ka), a);  // promotes a, evicts b (b's one write)
  EXPECT_EQ(spills(), 2.0);
  EXPECT_EQ(bm.num_rdd_blocks(1), 2u) << "a in memory and on disk counts once";

  const double charged = latency.Seconds(Layer::kSpill);
  bm.Put(kc, Block(3), nullptr);  // evicts a again: its disk copy is in place
  EXPECT_EQ(spills(), 2.0);
  EXPECT_EQ(latency.Seconds(Layer::kSpill), charged);
  EXPECT_EQ(bm.metrics().Value("flint_block_evictions"), 3.0);
  EXPECT_EQ(bm.spill_used(), 2 * a->SizeBytes());
  EXPECT_EQ(bm.num_rdd_blocks(1), 3u);
  EXPECT_EQ(bm.BlockBytes(ka), a->SizeBytes());
  EXPECT_EQ(bm.Get(ka), a);
}

TEST(BlockManagerSpillTest, StoringDifferentDataDropsTheStaleDiskCopy) {
  const PartitionPtr a = Block(1);
  BlockManager bm(OneBlockSpillConfig(a->SizeBytes()));
  const BlockKey ka{1, 0};
  bm.Put(ka, a, nullptr);
  bm.Put({1, 1}, Block(2), nullptr);
  ASSERT_EQ(bm.Get(ka), a);  // a now in memory and on disk

  const PartitionPtr fresh = Block(7);
  bool stored = false;
  bm.Put(ka, fresh, &stored);  // the refresh path
  ASSERT_TRUE(stored);
  bm.Put({1, 2}, Block(3), nullptr);  // evicts the fresh block: a real write
  EXPECT_EQ(bm.metrics().Value("flint_block_spills"), 3.0);
  EXPECT_EQ(bm.Get(ka), fresh);

  // The insert path: the key is only on disk when different data arrives.
  bm.Put({1, 3}, Block(4), nullptr);  // evicts the fresh block; its copy stays
  const PartitionPtr newer = Block(9);
  bm.Put(ka, newer, &stored);
  ASSERT_TRUE(stored);
  bm.Put({1, 4}, Block(5), nullptr);
  EXPECT_EQ(bm.Get(ka), newer);
  EXPECT_EQ(bm.BlockBytes({1, 9}), 0u);
}

// --- billing invariants over random synthetic traces ---

class BillingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BillingProperty, CostsAreMonotoneNonNegativeAndBounded) {
  SyntheticTraceParams params;
  params.duration = Hours(24.0 * 20);
  params.spikes_per_hour = 1.0 / 15.0;
  params.seed = GetParam();
  MarketDesc desc;
  desc.name = "p";
  desc.on_demand_price = params.on_demand_price;
  desc.trace = GenerateSyntheticTrace(params);
  SpotMarket market(std::move(desc));
  Rng rng(GetParam() ^ 0x1234ULL);
  for (int trial = 0; trial < 50; ++trial) {
    const double start = rng.Uniform(0.0, 24.0 * 15);
    const double d1 = rng.Uniform(0.0, 20.0);
    const double d2 = d1 + rng.Uniform(0.0, 20.0);
    const double c1 = market.BillServer(start, start + d1, false);
    const double c2 = market.BillServer(start, start + d2, false);
    EXPECT_GE(c1, 0.0);
    EXPECT_LE(c1, c2 + 1e-12);  // longer holds never cost less
    // Hourly billing at held prices <= bid-capped max price * hours.
    EXPECT_LE(c2, 10.0 * params.on_demand_price * (std::ceil(d2) + 1.0));
    // Provider revocation never costs more than user termination.
    EXPECT_LE(market.BillServer(start, start + d1, true), c1 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BillingProperty, ::testing::Values(11, 12, 13, 14, 15));

// --- statistics invariants ---

class StatsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatsProperty, EcdfIsMonotoneEndingAtOne) {
  Rng rng(GetParam());
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(rng.Normal(10.0, 3.0));
  }
  const auto ecdf = Ecdf(xs);
  ASSERT_FALSE(ecdf.empty());
  for (size_t i = 1; i < ecdf.size(); ++i) {
    EXPECT_GT(ecdf[i].first, ecdf[i - 1].first);
    EXPECT_GE(ecdf[i].second, ecdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(ecdf.back().second, 1.0);
}

TEST_P(StatsProperty, PercentileIsMonotoneAndBounded) {
  Rng rng(GetParam() ^ 0x77ULL);
  std::vector<double> xs;
  for (int i = 0; i < 151; ++i) {
    xs.push_back(rng.Uniform(-5.0, 5.0));
  }
  double prev = Percentile(xs, 0.0);
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double v = Percentile(xs, p);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), *std::max_element(xs.begin(), xs.end()));
}

TEST_P(StatsProperty, RunningStatsMatchesBatchFormulas) {
  Rng rng(GetParam() ^ 0x99ULL);
  RunningStats rs;
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.Exponential(2.0);
    rs.Add(x);
    xs.push_back(x);
  }
  EXPECT_NEAR(rs.mean(), Mean(xs), 1e-9);
  EXPECT_NEAR(rs.variance(), SampleVariance(xs), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsProperty, ::testing::Values(21, 22, 23, 24, 25, 26));

// --- Daly optimality over a (delta, mttf) grid ---

struct DalyCase {
  double delta;
  double mttf;
};

class DalyProperty : public ::testing::TestWithParam<DalyCase> {};

TEST_P(DalyProperty, TauOptMinimizesTheFactor) {
  const auto [delta, mttf] = GetParam();
  const double opt = OptimalCheckpointInterval(delta, mttf);
  auto factor = [&](double tau) { return 1.0 + delta / tau + tau / (2.0 * mttf); };
  for (double scale = 0.2; scale <= 5.0; scale *= 1.25) {
    EXPECT_LE(factor(opt), factor(opt * scale) + 1e-12)
        << "delta=" << delta << " mttf=" << mttf << " scale=" << scale;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, DalyProperty,
                         ::testing::Values(DalyCase{0.01, 1.0}, DalyCase{0.01, 100.0},
                                           DalyCase{0.05, 20.0}, DalyCase{0.2, 20.0},
                                           DalyCase{0.033, 700.0}, DalyCase{1.0, 50.0}));

// --- RNG sanity over seeds ---

class RngProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngProperty, UniformMomentsAndDeterminism) {
  Rng a(GetParam());
  Rng b(GetParam());
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double x = a.NextDouble();
    EXPECT_EQ(x, b.NextDouble());  // same seed, same stream
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    stats.Add(x);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST_P(RngProperty, ExponentialMeanMatches) {
  Rng rng(GetParam() ^ 0xabcULL);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(rng.Exponential(7.0));
  }
  EXPECT_NEAR(stats.mean(), 7.0, 0.35);
}

TEST_P(RngProperty, ForkedStreamsDiffer) {
  Rng rng(GetParam());
  Rng forked = rng.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (rng.NextU64() == forked.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngProperty, ::testing::Values(1, 7, 42, 1234, 99999));

}  // namespace
}  // namespace flint
