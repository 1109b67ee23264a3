// Wide-stage hot-path tests (ISSUE 9): the fused map-side bucketing and the
// merge-based reduce must be pure performance changes — every path produces
// bit-identical partitions. Covers:
//   - FlatHashMap unit behaviour (growth, collision storms, insertion-order
//     iteration, Reserve contract);
//   - fused vs unfused bucketing bit-identity for ReduceByKey / GroupByKey /
//     Join, including a non-commutative-looking string combine;
//   - merge-reduce vs hash-rebuild bit-identity;
//   - determinism across num_reduce choices;
//   - fused bucket chains recomputing bit-identically through a whole-cluster
//     revocation storm;
//   - co-partitioned Join / CoGroup / LeftOuterJoin: the shuffle-free plan
//     (Rdd::key_partitions) against the shuffled oracle, and the table of
//     which operators set, keep and drop key_partitions.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flat_hash.h"
#include "src/engine/typed_rdd_ops.h"
#include "src/inject/fault_injector.h"
#include "tests/test_util.h"

namespace flint {
namespace {

using testing::EngineHarness;
using testing::EngineHarnessOptions;

// --- FlatHashMap units ---

struct IdentityHash {
  size_t operator()(int k) const { return static_cast<size_t>(k); }
};

// Worst case for open addressing: every key lands in the same slot, so the
// probe chain is the whole table.
struct ConstantHash {
  size_t operator()(int) const { return 7; }
};

TEST(FlatHashTest, InsertsFindsAndGrows) {
  FlatHashMap<int, int, IdentityHash> m;
  EXPECT_TRUE(m.empty());
  for (int i = 0; i < 1000; ++i) {
    auto [slot, inserted] = m.FindOrEmplace(i, i * 2);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*slot, i * 2);
  }
  EXPECT_EQ(m.size(), 1000u);
  EXPECT_GE(m.capacity(), 1024u);  // grew past the minimum table
  for (int i = 0; i < 1000; ++i) {
    const int* v = m.Find(i);
    ASSERT_NE(v, nullptr) << "key " << i;
    EXPECT_EQ(*v, i * 2);
  }
  EXPECT_EQ(m.Find(1000), nullptr);
  EXPECT_EQ(m.Find(-1), nullptr);
}

TEST(FlatHashTest, CollisionStormProbesLinearly) {
  FlatHashMap<int, int, ConstantHash> m;
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(m.FindOrEmplace(i, i).second);
  }
  // Second pass hits every existing key through the full probe chain and
  // updates in place.
  for (int i = 0; i < 200; ++i) {
    auto [slot, inserted] = m.FindOrEmplace(i, -1);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*slot, i);
    *slot += 1000;
  }
  EXPECT_EQ(m.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    const int* v = m.Find(i);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i + 1000);
  }
  EXPECT_EQ(m.Find(777), nullptr);  // absent key terminates the probe
}

TEST(FlatHashTest, IterationFollowsInsertionOrder) {
  FlatHashMap<int, int, IdentityHash> m;
  // Insertion order deliberately differs from both key order and hash order.
  const std::vector<int> keys = {42, 7, 1000, 3, 99, 0, 512};
  for (size_t i = 0; i < keys.size(); ++i) {
    m[keys[i]] = static_cast<int>(i);
  }
  ASSERT_EQ(m.entries().size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(m.entries()[i].first, keys[i]);
    EXPECT_EQ(m.entries()[i].second, static_cast<int>(i));
  }
  std::vector<std::pair<int, int>> taken = m.TakeEntries();
  ASSERT_EQ(taken.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(taken[i].first, keys[i]);
  }
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(42), nullptr);
}

TEST(FlatHashTest, ReservePreventsRehash) {
  FlatHashMap<int, int, IdentityHash> m;
  m.Reserve(1000);
  const size_t cap = m.capacity();
  for (int i = 0; i < 1000; ++i) {
    m.FindOrEmplace(i, i);
  }
  EXPECT_EQ(m.capacity(), cap) << "Reserve(1000) must cover 1000 inserts";
}

TEST(FlatHashTest, BracketDefaultInsertsAndAppends) {
  FlatHashMap<int, std::vector<int>, IdentityHash> m;
  m[5].push_back(1);
  m[5].push_back(2);
  m[9].push_back(3);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(*m.Find(5), (std::vector<int>{1, 2}));
  EXPECT_EQ(*m.Find(9), (std::vector<int>{3}));
}

// --- fused vs unfused / merge vs hash bit-identity ---

EngineHarnessOptions Opts(bool shuffle_fusion, bool merge_reduce) {
  EngineHarnessOptions o;
  o.shuffle_fusion = shuffle_fusion;
  o.shuffle_merge_reduce = merge_reduce;
  return o;
}

// Skewed keyed data: key frequencies differ and values depend on position,
// so any reordering anywhere in the shuffle shows up in the output.
std::vector<std::pair<int, int>> SkewedPairs(int rows, int keys) {
  std::vector<std::pair<int, int>> data;
  data.reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    data.emplace_back((i * i + i / 3) % keys, i);
  }
  return data;
}

// Each workload returns the raw Collect — partitions concatenated in order,
// so the comparison is full bit-identity, not just set equality.

std::vector<std::pair<int, int>> RunReduceByKey(FlintContext* ctx, int num_reduce) {
  // The Map between the source and the shuffle is the narrow chain the fused
  // path elides; the combine is associative but NOT commutative-looking
  // (order-sensitive mixing), so any change in fold order breaks equality.
  auto mapped = Parallelize(ctx, SkewedPairs(6000, 37), 5)
                    .Map([](const std::pair<int, int>& kv) {
                      return std::make_pair(kv.first, kv.second * 2 + 1);
                    });
  auto out = ReduceByKey(mapped, num_reduce,
                         [](int a, int b) { return a * 31 + b; })
                 .Collect();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::vector<std::pair<int, int>>{};
}

std::vector<std::pair<int, std::string>> RunStringConcat(FlintContext* ctx) {
  // String concatenation: associative, visibly non-commutative. The fold
  // order (map partition, row index) must survive fusion and the merge.
  auto mapped = Parallelize(ctx, SkewedPairs(2000, 23), 4)
                    .Map([](const std::pair<int, int>& kv) {
                      return std::make_pair(kv.first, std::to_string(kv.second));
                    });
  auto out = ReduceByKey(mapped, 3,
                         [](const std::string& a, const std::string& b) {
                           return a + "," + b;
                         })
                 .Collect();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::vector<std::pair<int, std::string>>{};
}

std::vector<std::pair<int, std::vector<int>>> RunGroupByKey(FlintContext* ctx) {
  auto mapped = Parallelize(ctx, SkewedPairs(4000, 29), 6)
                    .Map([](const std::pair<int, int>& kv) {
                      return std::make_pair(kv.first, kv.second ^ 5);
                    });
  auto out = GroupByKey(mapped, 4).Collect();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::vector<std::pair<int, std::vector<int>>>{};
}

std::vector<std::pair<int, std::pair<int, int>>> RunJoin(FlintContext* ctx) {
  // Duplicate keys on both sides so the per-key cross product's row order is
  // exercised, with narrow Maps above both shuffles.
  auto left = Parallelize(ctx, SkewedPairs(1500, 19), 4)
                  .Map([](const std::pair<int, int>& kv) {
                    return std::make_pair(kv.first, kv.second + 100000);
                  });
  auto right = Parallelize(ctx, SkewedPairs(900, 19), 3)
                   .Map([](const std::pair<int, int>& kv) {
                     return std::make_pair(kv.first, -kv.second);
                   });
  auto out = Join(left, right, 3).Collect();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::vector<std::pair<int, std::pair<int, int>>>{};
}

TEST(ShufflePathTest, ReduceByKeyFusedMatchesUnfused) {
  std::vector<std::pair<int, int>> fused, unfused;
  {
    EngineHarness h{Opts(/*shuffle_fusion=*/true, /*merge_reduce=*/true)};
    fused = RunReduceByKey(&h.ctx(), 4);
    EXPECT_GT(h.ctx().counters().shuffle_fused_bucket_chains.load(), 0u);
    EXPECT_GT(h.ctx().counters().shuffle_rows_bucketed_fused.load(), 0u);
    EXPECT_EQ(h.ctx().counters().shuffle_rows_bucketed_unfused.load(), 0u);
    EXPECT_GT(h.ctx().counters().shuffle_combine_hits.load(), 0u);
  }
  {
    EngineHarness h{Opts(/*shuffle_fusion=*/false, /*merge_reduce=*/true)};
    unfused = RunReduceByKey(&h.ctx(), 4);
    EXPECT_EQ(h.ctx().counters().shuffle_fused_bucket_chains.load(), 0u);
    EXPECT_GT(h.ctx().counters().shuffle_rows_bucketed_unfused.load(), 0u);
  }
  ASSERT_FALSE(fused.empty());
  EXPECT_EQ(fused, unfused);
}

TEST(ShufflePathTest, MergeReduceMatchesHashRebuild) {
  std::vector<std::pair<int, int>> merged, hashed;
  {
    EngineHarness h{Opts(true, /*merge_reduce=*/true)};
    merged = RunReduceByKey(&h.ctx(), 4);
    EXPECT_GT(h.ctx().counters().shuffle_merge_reduces.load(), 0u);
    EXPECT_EQ(h.ctx().counters().shuffle_hash_reduces.load(), 0u);
  }
  {
    EngineHarness h{Opts(true, /*merge_reduce=*/false)};
    hashed = RunReduceByKey(&h.ctx(), 4);
    EXPECT_EQ(h.ctx().counters().shuffle_merge_reduces.load(), 0u);
    EXPECT_GT(h.ctx().counters().shuffle_hash_reduces.load(), 0u);
  }
  ASSERT_FALSE(merged.empty());
  EXPECT_EQ(merged, hashed);
}

TEST(ShufflePathTest, NonCommutativeCombineIdenticalOnAllPaths) {
  std::vector<std::pair<int, std::string>> reference;
  {
    EngineHarness h{Opts(true, true)};
    reference = RunStringConcat(&h.ctx());
    ASSERT_FALSE(reference.empty());
  }
  for (bool fusion : {true, false}) {
    for (bool merge : {true, false}) {
      EngineHarness h{Opts(fusion, merge)};
      EXPECT_EQ(RunStringConcat(&h.ctx()), reference)
          << "fusion=" << fusion << " merge=" << merge;
    }
  }
}

TEST(ShufflePathTest, GroupByKeyIdenticalOnAllPaths) {
  std::vector<std::pair<int, std::vector<int>>> reference;
  {
    EngineHarness h{Opts(true, true)};
    reference = RunGroupByKey(&h.ctx());
    ASSERT_FALSE(reference.empty());
  }
  for (bool fusion : {true, false}) {
    for (bool merge : {true, false}) {
      EngineHarness h{Opts(fusion, merge)};
      EXPECT_EQ(RunGroupByKey(&h.ctx()), reference)
          << "fusion=" << fusion << " merge=" << merge;
    }
  }
}

TEST(ShufflePathTest, JoinIdenticalOnAllPaths) {
  std::vector<std::pair<int, std::pair<int, int>>> reference;
  {
    EngineHarness h{Opts(true, true)};
    reference = RunJoin(&h.ctx());
    ASSERT_FALSE(reference.empty());
  }
  for (bool fusion : {true, false}) {
    for (bool merge : {true, false}) {
      EngineHarness h{Opts(fusion, merge)};
      EXPECT_EQ(RunJoin(&h.ctx()), reference)
          << "fusion=" << fusion << " merge=" << merge;
    }
  }
}

// The reduce output read key-sorted must not depend on how many reduce
// partitions the shuffle used (the per-key fold order is partition-count
// invariant: map-side row order, then bucket-index order).
TEST(ShufflePathTest, ReduceByKeyDeterministicAcrossNumReduce) {
  auto sorted = [](std::vector<std::pair<int, int>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  std::vector<std::pair<int, int>> reference;
  {
    EngineHarness h;
    reference = sorted(RunReduceByKey(&h.ctx(), 1));
    ASSERT_FALSE(reference.empty());
  }
  for (int num_reduce : {2, 3, 7}) {
    EngineHarness h;
    EXPECT_EQ(sorted(RunReduceByKey(&h.ctx(), num_reduce)), reference)
        << "num_reduce=" << num_reduce;
  }
}

// A whole-cluster hard revocation mid-stage forces the fused bucket chains
// to recompute from source on replacement nodes; the result must match an
// untouched cluster's byte for byte.
TEST(ShufflePathTest, FusedBucketChainSurvivesRevokeAllStorm) {
  std::vector<std::pair<int, std::string>> reference;
  {
    EngineHarness clean;
    reference = RunStringConcat(&clean.ctx());
    ASSERT_FALSE(reference.empty());
    ASSERT_GT(clean.ctx().counters().shuffle_fused_bucket_chains.load(), 0u);
  }

  EngineHarness h;
  FaultPlan plan;
  plan.events.push_back(RevokeAllAt(EnginePoint::kShuffleMapTaskRun, /*after_hits=*/0,
                                    /*with_warning=*/false, /*replacements=*/4,
                                    /*delay_seconds=*/0.05));
  FaultInjector injector(&h.cluster(), plan);
  h.ctx().SetProbe(&injector);
  auto out = RunStringConcat(&h.ctx());
  h.ctx().SetProbe(nullptr);
  injector.Drain();
  h.ctx().DrainExecutors();

  EXPECT_EQ(out, reference);
  EXPECT_TRUE(injector.AllEventsFired());
  EXPECT_GT(h.ctx().counters().shuffle_fused_bucket_chains.load(), 0u);
}

// --- co-partitioned Join / CoGroup ---

// Grid over the two engine paths a reduce body can see its input through:
// narrow-chain operator fusion and the merge vs hash-rebuild reduce.
EngineHarnessOptions GridOpts(bool operator_fusion, bool merge_reduce) {
  EngineHarnessOptions o;
  o.operator_fusion = operator_fusion;
  o.shuffle_merge_reduce = merge_reduce;
  return o;
}

// Drops the key partitioning without touching a row: the shuffled oracle.
template <typename K, typename V>
PairRdd<K, V> Identity(const PairRdd<K, V>& rdd) {
  return rdd.Map([](const std::pair<K, V>& kv) { return kv; }, "identity");
}

// Two inputs key-partitioned into `n` partitions. `unique` holds one row per
// key (ReduceByKey); `dups` repeats keys (a Join output, one row per matched
// pair) and covers only part of the key space, so CoGroup sees one-sided
// keys. With few keys and many partitions, some partitions are empty.
struct KeyedInputs {
  PairRdd<int, int> unique;
  PairRdd<int, int> dups;
};

KeyedInputs CopartitionedInputs(FlintContext* ctx, int n, int keys) {
  auto unique = ReduceByKey(Parallelize(ctx, SkewedPairs(1500, keys), 4), n,
                            [](int a, int b) { return a * 31 + b; });
  auto matched = Join(Parallelize(ctx, SkewedPairs(700, keys), 3),
                      Parallelize(ctx, SkewedPairs(keys, std::max(1, keys / 2)), 2), n);
  auto dups = MapValues(matched, [](const std::pair<int, int>& vw) {
    return vw.first * 1000 + vw.second;
  });
  return {unique, dups};
}

template <typename T>
std::vector<T> CollectOrEmpty(const TypedRdd<T>& rdd) {
  auto out = rdd.Collect();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::vector<T>{};
}

struct BinaryResults {
  std::vector<std::pair<int, std::pair<int, int>>> join;
  std::vector<std::pair<int, std::pair<std::vector<int>, std::vector<int>>>> cogroup;
  std::vector<std::pair<int, std::pair<int, std::optional<int>>>> left_outer;
  size_t shuffles = 0;  // shuffles the three operators registered

  bool SameRows(const BinaryResults& o) const {
    return join == o.join && cogroup == o.cogroup && left_outer == o.left_outer;
  }
};

// Join, CoGroup and LeftOuterJoin over the same inputs into `n` partitions;
// `shuffled` routes both inputs through Identity first.
BinaryResults RunBinaryOps(FlintContext* ctx, int n, int keys, bool shuffled) {
  KeyedInputs in = CopartitionedInputs(ctx, n, keys);
  if (shuffled) {
    in.unique = Identity(in.unique);
    in.dups = Identity(in.dups);
  }
  BinaryResults r;
  const size_t before = ctx->shuffles().NumShuffles();
  auto join = Join(in.dups, in.unique, n);
  auto cogroup = CoGroup(in.unique, in.dups, n);
  auto left_outer = LeftOuterJoin(in.dups, in.unique, n);
  r.shuffles = ctx->shuffles().NumShuffles() - before;
  for (const RddPtr& rdd : {join.raw(), cogroup.raw()}) {
    for (const Dependency& dep : rdd->deps()) {
      EXPECT_EQ(dep.type, shuffled ? DepType::kShuffle : DepType::kNarrowOneToOne)
          << rdd->name();
    }
  }
  r.join = CollectOrEmpty(join);
  r.cogroup = CollectOrEmpty(cogroup);
  r.left_outer = CollectOrEmpty(left_outer);
  return r;
}

// A co-partitioned Join/CoGroup/LeftOuterJoin registers no shuffle and
// equals the shuffled oracle row for row, on every engine path. N = 3 and 5
// exercise the `h % n` bucket rule, 4 and 8 the mask; 8 partitions over 3
// keys leave most partitions empty.
TEST(ShufflePathTest, CopartitionedBinaryOpsMatchShuffledOracle) {
  const std::vector<std::pair<int, int>> cases = {{4, 19}, {3, 19}, {5, 23}, {8, 3}};
  for (const auto& [n, keys] : cases) {
    for (bool fusion : {true, false}) {
      for (bool merge : {true, false}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " keys=" + std::to_string(keys) +
                     " fusion=" + std::to_string(fusion) + " merge=" + std::to_string(merge));
        EngineHarness h{GridOpts(fusion, merge)};
        const BinaryResults narrow = RunBinaryOps(&h.ctx(), n, keys, /*shuffled=*/false);
        const BinaryResults oracle = RunBinaryOps(&h.ctx(), n, keys, /*shuffled=*/true);
        EXPECT_EQ(narrow.shuffles, 0u);
        EXPECT_EQ(oracle.shuffles, 6u);
        ASSERT_FALSE(oracle.join.empty());
        EXPECT_TRUE(narrow.SameRows(oracle));
      }
    }
  }
}

// Matching key partitioning is not enough: the partition count must equal
// num_reduce on both sides, or the rows would sit in the wrong partitions.
TEST(ShufflePathTest, MismatchedKeyPartitionsStillShuffle) {
  EngineHarness h;
  FlintContext* ctx = &h.ctx();
  auto sum = [](int a, int b) { return a + b; };
  auto four = ReduceByKey(Parallelize(ctx, SkewedPairs(900, 17), 3), 4, sum);
  auto three = ReduceByKey(Parallelize(ctx, SkewedPairs(600, 17), 2), 3, sum);
  auto expected = CollectOrEmpty(Join(Identity(four), Identity(three), 4));
  ASSERT_FALSE(expected.empty());

  const size_t before = ctx->shuffles().NumShuffles();
  auto mixed = Join(four, three, 4);
  EXPECT_EQ(ctx->shuffles().NumShuffles() - before, 2u);
  EXPECT_EQ(CollectOrEmpty(mixed), expected);

  // Both sides partitioned alike, but into a different count than asked.
  auto four_b = ReduceByKey(Parallelize(ctx, SkewedPairs(600, 17), 2), 4, sum);
  const size_t before_other_n = ctx->shuffles().NumShuffles();
  auto regrouped = CoGroup(four, four_b, 5);
  EXPECT_EQ(ctx->shuffles().NumShuffles() - before_other_n, 2u);
  EXPECT_EQ(regrouped.raw()->key_partitions(), 5);
  EXPECT_EQ(CollectOrEmpty(regrouped), CollectOrEmpty(CoGroup(Identity(four), Identity(four_b), 5)));
}

// Which operators set, keep and drop key_partitions. A wrong "kept" would
// send a narrow join to the wrong partition and lose rows silently, so this
// table is the correctness guard for the shuffle-free plan.
TEST(ShufflePathTest, KeyPartitionsPropagationTable) {
  EngineHarness h;
  FlintContext* ctx = &h.ctx();
  auto base = Parallelize(ctx, SkewedPairs(400, 13), 4);
  auto generated = Generate(ctx, 3, [](int i) { return SkewedPairs(10 + i, 5); });
  auto reduced = ReduceByKey(base, 5, [](int a, int b) { return a + b; });
  auto grouped = GroupByKey(base, 3);
  auto kv = [](const std::pair<int, int>& p) { return p; };

  // Set: the shuffle producers and both binary operators, on either plan.
  EXPECT_EQ(reduced.raw()->key_partitions(), 5);
  EXPECT_EQ(grouped.raw()->key_partitions(), 3);
  EXPECT_EQ(Join(reduced, reduced, 5).raw()->key_partitions(), 5);  // narrow
  EXPECT_EQ(Join(base, reduced, 6).raw()->key_partitions(), 6);     // shuffled
  EXPECT_EQ(CoGroup(reduced, reduced, 5).raw()->key_partitions(), 5);
  EXPECT_EQ(CoGroup(reduced, base, 2).raw()->key_partitions(), 2);

  // Kept: MapValues cannot move a key.
  EXPECT_EQ(MapValues(reduced, [](int v) { return v * 2; }).raw()->key_partitions(), 5);
  EXPECT_EQ(MapValues(base, [](int v) { return v; }).raw()->key_partitions(), 0);

  // Dropped: everything else, even where the keys happen to survive.
  EXPECT_EQ(base.raw()->key_partitions(), 0);
  EXPECT_EQ(generated.raw()->key_partitions(), 0);
  EXPECT_EQ(reduced.Map(kv).raw()->key_partitions(), 0);
  EXPECT_EQ(reduced.FlatMap([](const std::pair<int, int>& p) {
                       return std::vector<std::pair<int, int>>{p};
                     }).raw()->key_partitions(),
            0);
  EXPECT_EQ(reduced.Filter([](const std::pair<int, int>&) { return true; })
                .raw()
                ->key_partitions(),
            0);
  EXPECT_EQ(reduced.MapPartitions([](const std::vector<std::pair<int, int>>& rows) {
                       return rows;
                     }).raw()->key_partitions(),
            0);
  EXPECT_EQ(Union(reduced, reduced).raw()->key_partitions(), 0);
  EXPECT_EQ(Sample(reduced, 0.5, 7).raw()->key_partitions(), 0);
  EXPECT_EQ(SortBy(reduced, [](const std::pair<int, int>& p) { return p.first; })
                .raw()
                ->key_partitions(),
            0);
  EXPECT_EQ(LeftOuterJoin(reduced, reduced, 5).raw()->key_partitions(), 0);
}

}  // namespace
}  // namespace flint
