// Tests for the extended operator surface (typed_rdd_ops.h): Union,
// Distinct, Sample, SortBy, CoGroup, LeftOuterJoin, Take/First, Keys/Values —
// including behaviour across revocations — plus the chain rules of the
// streaming operators (fusion.h, TaskContext::RunChain): chains match
// driver-side oracles, count what they do not build, and break at cache,
// checkpoint, shuffle, and shared-consumer boundaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>

#include "src/common/rng.h"
#include "src/engine/typed_rdd_ops.h"
#include "tests/test_util.h"

namespace flint {
namespace {

using testing::EngineHarness;
using testing::EngineHarnessOptions;

TEST(EngineOpsTest, UnionConcatenatesBothSides) {
  EngineHarness h;
  auto a = Parallelize(&h.ctx(), std::vector<int>{1, 2, 3}, 2);
  auto b = Parallelize(&h.ctx(), std::vector<int>{4, 5}, 1);
  auto u = Union(a, b);
  EXPECT_EQ(u.num_partitions(), 3);
  auto out = u.Collect();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EngineOpsTest, UnionOfEmptyIsEmpty) {
  EngineHarness h;
  auto a = Parallelize(&h.ctx(), std::vector<int>{}, 1);
  auto b = Parallelize(&h.ctx(), std::vector<int>{}, 1);
  auto count = Union(a, b).Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST(EngineOpsTest, DistinctRemovesDuplicates) {
  EngineHarness h;
  std::vector<int> data;
  for (int i = 0; i < 300; ++i) {
    data.push_back(i % 17);
  }
  auto out = Distinct(Parallelize(&h.ctx(), data, 4), 3).Collect();
  ASSERT_TRUE(out.ok());
  std::set<int> got(out->begin(), out->end());
  EXPECT_EQ(out->size(), got.size());  // no dupes survive
  EXPECT_EQ(got.size(), 17u);
}

TEST(EngineOpsTest, SampleIsDeterministicAndApproximate) {
  EngineHarness h;
  std::vector<int> data(10000);
  std::iota(data.begin(), data.end(), 0);
  auto base = Parallelize(&h.ctx(), data, 8);
  auto s1 = Sample(base, 0.25, /*seed=*/9).Collect();
  auto s2 = Sample(base, 0.25, /*seed=*/9).Collect();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s1, *s2);
  EXPECT_NEAR(static_cast<double>(s1->size()), 2500.0, 200.0);
}

TEST(EngineOpsTest, SortByOrdersGlobally) {
  EngineHarness h;
  Rng rng(4);
  std::vector<int> data;
  for (int i = 0; i < 500; ++i) {
    data.push_back(static_cast<int>(rng.UniformInt(100000)));
  }
  auto sorted = SortBy(Parallelize(&h.ctx(), data, 6), [](const int& x) { return x; }).Collect();
  ASSERT_TRUE(sorted.ok());
  ASSERT_EQ(sorted->size(), data.size());
  EXPECT_TRUE(std::is_sorted(sorted->begin(), sorted->end()));
}

TEST(EngineOpsTest, CoGroupCollectsBothSides) {
  EngineHarness h;
  std::vector<std::pair<int, int>> left = {{1, 10}, {1, 11}, {2, 20}};
  std::vector<std::pair<int, double>> right = {{1, 0.5}, {3, 0.25}};
  auto cg = CoGroup(Parallelize(&h.ctx(), left, 2), Parallelize(&h.ctx(), right, 2), 2);
  auto out = cg.Collect();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);  // keys 1, 2, 3
  for (const auto& [k, vw] : *out) {
    if (k == 1) {
      EXPECT_EQ(vw.first.size(), 2u);
      EXPECT_EQ(vw.second.size(), 1u);
    } else if (k == 2) {
      EXPECT_EQ(vw.first.size(), 1u);
      EXPECT_TRUE(vw.second.empty());
    } else {
      EXPECT_TRUE(vw.first.empty());
      EXPECT_EQ(vw.second.size(), 1u);
    }
  }
}

TEST(EngineOpsTest, LeftOuterJoinKeepsUnmatchedLeftRows) {
  EngineHarness h;
  std::vector<std::pair<int, int>> left = {{1, 10}, {2, 20}};
  std::vector<std::pair<int, double>> right = {{1, 0.5}};
  auto j = LeftOuterJoin(Parallelize(&h.ctx(), left, 1), Parallelize(&h.ctx(), right, 1), 2);
  auto out = j.Collect();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  for (const auto& [k, vw] : *out) {
    if (k == 1) {
      ASSERT_TRUE(vw.second.has_value());
      EXPECT_DOUBLE_EQ(*vw.second, 0.5);
    } else {
      EXPECT_FALSE(vw.second.has_value());
    }
  }
}

TEST(EngineOpsTest, TakeAndFirst) {
  EngineHarness h;
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, 4);
  auto taken = Take(rdd, 5);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(*taken, (std::vector<int>{0, 1, 2, 3, 4}));
  auto first = First(rdd);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0);
  auto empty = Parallelize(&h.ctx(), std::vector<int>{}, 1);
  EXPECT_EQ(First(empty).status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineOpsTest, KeysValuesProject) {
  EngineHarness h;
  std::vector<std::pair<int, double>> data = {{1, 0.5}, {2, 0.25}};
  auto rdd = Parallelize(&h.ctx(), data, 1);
  auto keys = Keys(rdd).Collect();
  auto values = Values(rdd).Collect();
  ASSERT_TRUE(keys.ok());
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(*keys, (std::vector<int>{1, 2}));
  EXPECT_EQ(*values, (std::vector<double>{0.5, 0.25}));
}

// --- narrow-chain operator fusion (fusion.h) ---

// Parallelize's split: partition i holds data[n*i/parts, n*(i+1)/parts).
template <typename T>
std::vector<std::vector<T>> SplitLikeParallelize(const std::vector<T>& data, int parts) {
  std::vector<std::vector<T>> out;
  const size_t n = data.size();
  for (size_t i = 0; i < static_cast<size_t>(parts); ++i) {
    out.emplace_back(data.begin() + static_cast<ptrdiff_t>(n * i / static_cast<size_t>(parts)),
                     data.begin() +
                         static_cast<ptrdiff_t>(n * (i + 1) / static_cast<size_t>(parts)));
  }
  return out;
}

TEST(FusionTest, FusedChainMatchesOracleBitForBit) {
  EngineHarness h;
  std::vector<int> data(5000);
  std::iota(data.begin(), data.end(), -2500);
  auto out = Parallelize(&h.ctx(), data, 4)
                 .Map([](const int& x) { return x * 3 + 1; })
                 .Map([](const int& x) { return x ^ (x >> 2); })
                 .Filter([](const int& x) { return x % 7 != 0; })
                 .Collect();
  std::vector<int> oracle;
  for (int x : data) {
    const int y = (x * 3 + 1) ^ ((x * 3 + 1) >> 2);
    if (y % 7 != 0) {
      oracle.push_back(y);
    }
  }
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, oracle);
  // One fused task per partition, two intermediate partitions elided each.
  EXPECT_EQ(h.ctx().counters().fused_chains.load(), 4u);
  EXPECT_EQ(h.ctx().counters().fused_operators_elided.load(), 8u);
  // Only the sources and the chain heads were built.
  EXPECT_EQ(h.ctx().counters().partitions_computed.load(), 8u);
}

TEST(FusionTest, FlatMapAndSampleFuseDeterministically) {
  EngineHarness h;
  std::vector<int> data(2000);
  std::iota(data.begin(), data.end(), 0);
  auto exploded = Parallelize(&h.ctx(), data, 5).FlatMap([](const int& x) {
    return std::vector<int>{x, x + 100000};
  });
  auto out = Sample(exploded, 0.5, /*seed=*/11).Map([](const int& x) { return x * 2; }).Collect();
  // Sample seeds one RNG per partition with seed * 2654435761 + partition
  // and draws once per row in order.
  std::vector<int> oracle;
  const auto parts = SplitLikeParallelize(data, 5);
  for (size_t i = 0; i < parts.size(); ++i) {
    Rng rng(11 * 2654435761ULL + i);
    for (int x : parts[i]) {
      for (int y : {x, x + 100000}) {
        if (rng.Bernoulli(0.5)) {
          oracle.push_back(y * 2);
        }
      }
    }
  }
  ASSERT_TRUE(out.ok());
  ASSERT_GT(oracle.size(), 1000u);
  EXPECT_EQ(*out, oracle);
  EXPECT_EQ(h.ctx().counters().fused_chains.load(), 5u);
  EXPECT_EQ(h.ctx().counters().fused_operators_elided.load(), 10u);
  EXPECT_EQ(h.ctx().counters().partitions_computed.load(), 10u);
}

// A single streaming operator over a cached RDD is a chain with no
// intermediate: it builds its own partition, elides nothing, and its output
// is exactly the operator applied to the cached rows.
TEST(FusionTest, SingleOperatorOverCacheMatchesOracle) {
  EngineHarness h;
  std::vector<int> data(3000);
  std::iota(data.begin(), data.end(), 0);
  auto base = Parallelize(&h.ctx(), data, 3);
  base.Cache();
  auto mapped = base.Map([](const int& x) { return x * 5 - 1; }).Collect();
  auto selective = base.Filter([](const int& x) { return x % 97 == 3; }).Collect();
  std::vector<int> map_oracle, filter_oracle;
  for (int x : data) {
    map_oracle.push_back(x * 5 - 1);
    if (x % 97 == 3) {
      filter_oracle.push_back(x);
    }
  }
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(selective.ok());
  EXPECT_EQ(*mapped, map_oracle);
  EXPECT_EQ(*selective, filter_oracle);
  EXPECT_EQ(h.ctx().counters().fused_chains.load(), 0u);
  EXPECT_EQ(h.ctx().counters().fused_operators_elided.load(), 0u);
  EXPECT_EQ(h.ctx().counters().cache_hits.load(), 3u);  // the Filter read the cache
}

// fused_operators_elided counts every RDD partition a chain streamed through
// without building: a narrow chain's intermediates (its head is built), and
// every operator of a shuffle map side (nothing there is built).
TEST(FusionTest, ElidedCountsEveryPartitionNotBuilt) {
  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 900; ++i) {
    data.emplace_back(i % 11, i);
  }
  {
    EngineHarness h;
    auto mapped = Parallelize(&h.ctx(), data, 4).Map([](const std::pair<int, int>& kv) {
      return std::make_pair(kv.first, kv.second % 5);
    });
    auto out = ReduceByKey(mapped, 3, [](int a, int b) { return a + b; }).Collect();
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->size(), 11u);
    EXPECT_EQ(h.ctx().counters().fused_operators_elided.load(), 4u);  // one Map per map task
    EXPECT_EQ(h.ctx().counters().shuffle_fused_bucket_chains.load(), 4u);
    EXPECT_EQ(h.ctx().counters().fused_chains.load(), 0u);
  }
  {
    EngineHarness h;
    auto out = Parallelize(&h.ctx(), data, 3)
                   .Map([](const std::pair<int, int>& kv) { return kv.second; })
                   .Map([](const int& v) { return v + 1; })
                   .Collect();
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->size(), data.size());
    EXPECT_EQ(h.ctx().counters().fused_operators_elided.load(), 3u);  // the lower Map
    EXPECT_EQ(h.ctx().counters().fused_chains.load(), 3u);
  }
}

TEST(FusionTest, CacheBoundaryBreaksFusionAndPopulatesCache) {
  EngineHarness h;
  std::vector<int> data(900);
  std::iota(data.begin(), data.end(), 0);
  auto mid = Parallelize(&h.ctx(), data, 3).Map([](const int& x) { return x + 1; });
  mid.Cache();
  auto out = mid.Map([](const int& x) { return x * 2; })
                 .Filter([](const int& x) { return x > 10; })
                 .Collect();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->front(), 12);
  EXPECT_EQ(out->size(), 895u);
  // Only the two ops below the cache fused; mid itself was materialized.
  EXPECT_EQ(h.ctx().counters().fused_chains.load(), 3u);
  EXPECT_EQ(h.ctx().counters().fused_operators_elided.load(), 3u);
  // A second action over mid is served from cache, proving the fused task
  // did not stream through the cache point.
  const uint64_t hits_before = h.ctx().counters().cache_hits.load();
  auto again = mid.Collect();
  ASSERT_TRUE(again.ok());
  EXPECT_GE(h.ctx().counters().cache_hits.load() - hits_before, 3u);
}

TEST(FusionTest, CheckpointMarkBreaksFusion) {
  EngineHarness h;
  std::vector<int> data(600);
  std::iota(data.begin(), data.end(), 0);
  auto mid = Parallelize(&h.ctx(), data, 3).Map([](const int& x) { return x + 5; });
  ASSERT_TRUE(mid.raw()->MarkForCheckpoint());
  auto out = mid.Map([](const int& x) { return x - 5; }).Collect();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, data);
  // The marked RDD is a chain barrier: the single op above it forms a
  // chain with no intermediate, so nothing fuses.
  EXPECT_EQ(h.ctx().counters().fused_chains.load(), 0u);
}

TEST(FusionTest, SharedIntermediateIsNotFusedThrough) {
  EngineHarness h;
  std::vector<int> data(600);
  std::iota(data.begin(), data.end(), 0);
  auto mid = Parallelize(&h.ctx(), data, 3).Map([](const int& x) { return x + 1; });
  auto doubled = mid.Map([](const int& x) { return x * 2; });
  auto evens = mid.Filter([](const int& x) { return x % 2 == 0; });
  // mid now has two live consumers; streaming through it would compute it
  // twice, so neither chain may fuse across it.
  auto a = doubled.Collect();
  auto b = evens.Collect();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->front(), 2);
  EXPECT_EQ(a->size(), 600u);
  EXPECT_EQ(b->size(), 300u);
  EXPECT_EQ(h.ctx().counters().fused_chains.load(), 0u);
}

TEST(FusionTest, FusionRestartsAfterShuffleBoundary) {
  EngineHarness h;
  std::vector<std::pair<int, int>> data;
  std::map<int, int> per_key;
  for (int i = 0; i < 1200; ++i) {
    data.emplace_back(i % 23, 1);
    ++per_key[i % 23];
  }
  auto counts = ReduceByKey(Parallelize(&h.ctx(), data, 4), 3, [](int a, int b) { return a + b; });
  auto out = counts.Map([](const std::pair<int, int>& kv) { return kv.second; })
                 .Filter([](const int& c) { return c > 0; })
                 .Collect();
  std::vector<int> oracle;
  for (const auto& [key, count] : per_key) {
    oracle.push_back(count);
  }
  std::sort(oracle.begin(), oracle.end());
  ASSERT_TRUE(out.ok());
  std::sort(out->begin(), out->end());
  EXPECT_EQ(*out, oracle);
  // The Map->Filter pair above the shuffle output fused (one chain per
  // reduce partition); the shuffle itself never streams.
  EXPECT_EQ(h.ctx().counters().fused_chains.load(), 3u);
}

TEST(FusionTest, ReducePartialsFuseIntoTheChain) {
  EngineHarness h;
  std::vector<int> data(4000);
  std::iota(data.begin(), data.end(), 1);
  auto sum = Parallelize(&h.ctx(), data, 6)
                 .Map([](const int& x) { return x * 2; })
                 .Reduce([](int a, int b) { return a + b; });
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, 4000 * 4001);
  // The per-partition fold sank into the map chain: map + partial fuse.
  EXPECT_EQ(h.ctx().counters().fused_chains.load(), 6u);
  EXPECT_EQ(h.ctx().counters().fused_operators_elided.load(), 6u);
  EXPECT_EQ(h.ctx().counters().partitions_computed.load(), 12u);
}

TEST(FusionTest, ReduceIsDeterministicForNonCommutativeOps) {
  EngineHarness h{EngineHarnessOptions{.executor_threads = 2}};
  std::vector<std::string> tokens;
  std::string expect;
  for (int i = 0; i < 40; ++i) {
    tokens.push_back(std::string(1, static_cast<char>('a' + i % 26)));
    expect += tokens.back();
  }
  // Concatenation is associative but not commutative: the driver must fold
  // per-partition partials in partition order.
  auto got = Parallelize(&h.ctx(), tokens, 8).Reduce([](const std::string& a,
                                                        const std::string& b) { return a + b; });
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, expect);
}

// SortBy over int64_t keys on reduce partitions large enough for the radix
// path (key_sort.h), negative keys and the int64 extremes included: the
// result equals std::stable_sort of the input by key, ties in input order.
TEST(EngineOpsTest, SortByInt64KeysMatchesStableSortOracle) {
  EngineHarness h{EngineHarnessOptions{.executor_threads = 2}};
  Rng rng(13);
  std::vector<std::pair<int64_t, int>> data;
  for (int i = 0; i < 20000; ++i) {
    int64_t key = static_cast<int64_t>(rng.UniformInt(1u << 20)) - (1 << 19);
    if (i % 101 == 0) {
      key = i % 2 == 0 ? std::numeric_limits<int64_t>::min() : std::numeric_limits<int64_t>::max();
    } else if (i % 3 == 0) {
      key = key * 1000003;  // spread into the upper key bytes
    }
    data.emplace_back(key, i);
  }
  auto key = [](const std::pair<int64_t, int>& p) { return p.first; };
  std::vector<std::pair<int64_t, int>> oracle = data;
  std::stable_sort(oracle.begin(), oracle.end(),
                   [&](const auto& a, const auto& b) { return key(a) < key(b); });
  auto base = Parallelize(&h.ctx(), data, 4);
  for (int parts : {1, 3}) {
    auto out = SortBy(base, key, parts).Collect();
    ASSERT_TRUE(out.ok()) << "num_output=" << parts;
    EXPECT_EQ(*out, oracle) << "num_output=" << parts;
  }
}

TEST(EngineOpsTest, SortByDeterministicAcrossPartitionCounts) {
  EngineHarness h{EngineHarnessOptions{.executor_threads = 2}};
  Rng rng(7);
  std::vector<std::pair<int, int>> data;  // many duplicate keys, distinct payloads
  for (int i = 0; i < 3000; ++i) {
    data.emplace_back(static_cast<int>(rng.UniformInt(50)), i);
  }
  auto base = Parallelize(&h.ctx(), data, 6);
  auto key = [](const std::pair<int, int>& p) { return p.first; };
  std::optional<std::vector<std::pair<int, int>>> reference;
  for (int parts : {1, 2, 4, 8}) {
    auto out = SortBy(base, key, parts).Collect();
    ASSERT_TRUE(out.ok()) << "num_output=" << parts;
    ASSERT_EQ(out->size(), data.size());
    EXPECT_TRUE(std::is_sorted(out->begin(), out->end(),
                               [&](const auto& a, const auto& b) { return key(a) < key(b); }));
    if (!reference.has_value()) {
      reference = *out;
    } else {
      // Equal keys keep their arrival order (stable sort + range partitioning
      // that never splits a key), so every partition count yields the exact
      // same sequence.
      EXPECT_EQ(*out, *reference) << "num_output=" << parts;
    }
  }
}

TEST(EngineOpsTest, TakeMaterializesOnlyNeededPartitions) {
  EngineHarness h;
  std::vector<int> data(400);
  std::iota(data.begin(), data.end(), 0);
  auto rdd = Parallelize(&h.ctx(), data, 8).Map([](const int& x) { return x + 1; });
  const uint64_t before = h.ctx().counters().partitions_computed.load();
  auto out = Take(rdd, 10);
  ASSERT_TRUE(out.ok());
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 1);
  EXPECT_EQ(*out, expect);
  // Partition 0 (50 rows) covers n=10: only the first chain bottom and its
  // source were computed, not all 8 partitions.
  EXPECT_LE(h.ctx().counters().partitions_computed.load() - before, 2u);

  // A larger n spans partitions but keeps the global prefix order.
  auto more = Take(rdd, 120);
  ASSERT_TRUE(more.ok());
  std::vector<int> expect_more(120);
  std::iota(expect_more.begin(), expect_more.end(), 1);
  EXPECT_EQ(*more, expect_more);

  // n beyond the dataset returns everything.
  auto all = Take(rdd, 1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 400u);
}

TEST(EngineOpsTest, DistinctSurvivesRevocation) {
  EngineHarness h;
  std::vector<int> data;
  for (int i = 0; i < 2000; ++i) {
    data.push_back(i % 97);
  }
  auto base = Parallelize(&h.ctx(), data, 8);
  base.Cache();
  auto d = Distinct(base, 4);
  auto before = d.Count();
  ASSERT_TRUE(before.ok());
  h.RevokeNodes(2);
  auto after = Distinct(base, 4).Count();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
  EXPECT_EQ(*after, 97u);
}

}  // namespace
}  // namespace flint
