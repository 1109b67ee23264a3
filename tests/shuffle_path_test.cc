// Wide-stage hot-path tests: the fused map-side bucketing must be a pure
// performance change, and the merge-based reduce must fold, group and join
// in the documented order. Covers:
//   - FlatHashMap unit behaviour (growth, collision storms, insertion-order
//     iteration, Reserve contract);
//   - streamed vs materialized map-side bucketing bit-identity for
//     ReduceByKey / GroupByKey / Join (the map side uncached, so its chain
//     streams into the buckets, or cached, so it is built first), including
//     non-commutative combines;
//   - ReduceByKey / GroupByKey / Join against driver-side oracles (a left
//     fold, exact per-key value order, a nested-loop join);
//   - determinism across num_reduce choices;
//   - fused bucket chains recomputing bit-identically through a whole-cluster
//     revocation storm;
//   - co-partitioned Join / CoGroup / LeftOuterJoin: the shuffle-free plan
//     (Rdd::key_partitions) against the shuffled oracle, one-sided joins that
//     shuffle only the unpartitioned side, narrow ReduceByKey / GroupByKey,
//     the checked KeyPartitioned declaration, and the table of which
//     operators set, keep and drop key_partitions;
//   - the key-run walk behind every keyed reduce: Join against the
//     nested-loop oracle with vector values on a mixed plan (one side read
//     in place with key runs, the other shuffled with duplicates across
//     buckets), keys on one side only, empty partitions and an empty side,
//     and a key type with no default constructor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
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

// A key that counts every equality test made against it: one per occupied
// slot a probe passes, so compares per operation measure probe length.
struct CountingKey {
  int value;
  int* compares;
  bool operator==(const CountingKey& other) const {
    ++*compares;
    return value == other.value;
  }
};

struct CountingKeyIdentityHash {
  size_t operator()(const CountingKey& k) const { return static_cast<size_t>(k.value); }
};

TEST(FlatHashTest, ProbesStayShortWhenLowBitsAreFixed) {
  // The keys of one bucket of a 16-bucket shuffle sink under an identity
  // hash: every key shares its low 4 bits. Homing on those bits would leave
  // 15 of every 16 slots unreachable and the probe runs long.
  constexpr int kKeys = 4096;
  int compares = 0;
  FlatHashMap<CountingKey, int, CountingKeyIdentityHash> m;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(m.FindOrEmplace(CountingKey{16 * i + 3, &compares}, i).second);
  }
  EXPECT_LT(compares, 2 * kKeys) << "compares per insert: " << double(compares) / kKeys;
  compares = 0;
  for (int i = 0; i < kKeys; ++i) {
    const int* v = m.Find(CountingKey{16 * i + 3, &compares});
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i);
  }
  EXPECT_LT(compares, 2 * kKeys) << "compares per find: " << double(compares) / kKeys;
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

// --- streamed vs materialized map sides, and driver-side oracles ---
//
// Parallelize keeps input order, so a row's (map partition, row) position is
// its input position: each oracle replays the engine's documented order
// (values fold, group and join in map-partition, row order) with plain loops
// over the driver-side input.

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

// x -> a*x + b (mod 2^32), packed as a << 32 | b. Composition is associative
// and unsigned arithmetic wraps without undefined behaviour. Maps commute
// only when b is proportional to a - 1 (then each is a disguised
// multiplication), so ToAffine picks b = i*i + 1 and a reordered fold
// changes the result; ComposeIsAssociativeButNotCommutative guards that.
uint64_t Affine(uint32_t a, uint32_t b) { return (uint64_t{a} << 32) | b; }

// `g` applied after `f`.
uint64_t Compose(uint64_t f, uint64_t g) {
  const auto fa = static_cast<uint32_t>(f >> 32);
  const auto fb = static_cast<uint32_t>(f);
  const auto ga = static_cast<uint32_t>(g >> 32);
  const auto gb = static_cast<uint32_t>(g);
  return Affine(ga * fa, ga * fb + gb);
}

std::pair<int, uint64_t> ToAffine(const std::pair<int, int>& kv) {
  const auto i = static_cast<uint32_t>(kv.second);
  return {kv.first, Affine(2 * i + 1, i * i + 1)};
}

std::pair<int, std::string> ToText(const std::pair<int, int>& kv) {
  return {kv.first, std::to_string(kv.second)};
}

// String concatenation: associative, visibly non-commutative.
std::string Concat(const std::string& a, const std::string& b) { return a + "," + b; }

std::pair<int, int> XorFive(const std::pair<int, int>& kv) { return {kv.first, kv.second ^ 5}; }
std::pair<int, int> Lift(const std::pair<int, int>& kv) { return {kv.first, kv.second + 100000}; }
std::pair<int, int> Negate(const std::pair<int, int>& kv) { return {kv.first, -kv.second}; }

template <typename F>
auto MapRows(const std::vector<std::pair<int, int>>& rows, F fn) {
  std::vector<decltype(fn(rows.front()))> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    out.push_back(fn(row));
  }
  return out;
}

// Sorts rows by key only, keeping each key's rows in their emitted order.
template <typename Row>
std::vector<Row> StableSortedByKey(std::vector<Row> rows) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.first < b.first; });
  return rows;
}

// ReduceByKey's oracle: a per-key left fold in input order, key-sorted.
template <typename K, typename V, typename Combine>
std::vector<std::pair<K, V>> FoldOracle(const std::vector<std::pair<K, V>>& rows,
                                        Combine combine) {
  std::map<K, V> acc;
  for (const auto& [k, v] : rows) {
    auto [it, inserted] = acc.emplace(k, v);
    if (!inserted) {
      it->second = combine(it->second, v);
    }
  }
  return {acc.begin(), acc.end()};
}

// GroupByKey's oracle: each key's values in input order, key-sorted.
template <typename K, typename V>
std::vector<std::pair<K, std::vector<V>>> GroupOracle(const std::vector<std::pair<K, V>>& rows) {
  std::map<K, std::vector<V>> groups;
  for (const auto& [k, v] : rows) {
    groups[k].push_back(v);
  }
  return {groups.begin(), groups.end()};
}

// Join's oracle: a nested-loop join, right rows outer and left rows inner —
// the per-key order Join emits — key-sorted.
template <typename K, typename V, typename W>
std::vector<std::pair<K, std::pair<V, W>>> JoinOracle(const std::vector<std::pair<K, V>>& left,
                                                      const std::vector<std::pair<K, W>>& right) {
  std::vector<std::pair<K, std::pair<V, W>>> rows;
  for (const auto& [rk, w] : right) {
    for (const auto& [lk, v] : left) {
      if (lk == rk) {
        rows.emplace_back(rk, std::make_pair(v, w));
      }
    }
  }
  return StableSortedByKey(std::move(rows));
}

// Each workload returns the raw Collect — partitions concatenated in order,
// so streamed vs materialized is full bit-identity, not just set equality.
// The Map between each source and its shuffle is the map side: uncached, it
// streams into the bucket sinks and is never built; cached
// (`cache_map_side`), it is a chain barrier, built and stored first, and its
// rows are then driven into the same sinks.

template <typename T>
void MaybeCache(TypedRdd<T>& rdd, bool cache) {
  if (cache) {
    rdd.Cache();
  }
}

std::vector<std::pair<int, uint64_t>> RunReduceByKey(FlintContext* ctx, int num_reduce,
                                                     bool cache_map_side = false) {
  auto mapped = Parallelize(ctx, SkewedPairs(6000, 37), 5).Map(ToAffine);
  MaybeCache(mapped, cache_map_side);
  auto out = ReduceByKey(mapped, num_reduce, Compose).Collect();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::vector<std::pair<int, uint64_t>>{};
}

std::vector<std::pair<int, std::string>> RunStringConcat(FlintContext* ctx,
                                                        bool cache_map_side = false) {
  auto mapped = Parallelize(ctx, SkewedPairs(2000, 23), 4).Map(ToText);
  MaybeCache(mapped, cache_map_side);
  auto out = ReduceByKey(mapped, 3, Concat).Collect();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::vector<std::pair<int, std::string>>{};
}

std::vector<std::pair<int, std::vector<int>>> RunGroupByKey(FlintContext* ctx,
                                                            bool cache_map_side) {
  auto mapped = Parallelize(ctx, SkewedPairs(4000, 29), 6).Map(XorFive);
  MaybeCache(mapped, cache_map_side);
  auto out = GroupByKey(mapped, 4).Collect();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::vector<std::pair<int, std::vector<int>>>{};
}

std::vector<std::pair<int, std::pair<int, int>>> RunJoin(FlintContext* ctx, bool cache_map_side) {
  // Duplicate keys on both sides so the per-key cross product's row order is
  // exercised, with narrow Maps above both shuffles.
  auto left = Parallelize(ctx, SkewedPairs(1500, 19), 4).Map(Lift);
  auto right = Parallelize(ctx, SkewedPairs(900, 19), 3).Map(Negate);
  MaybeCache(left, cache_map_side);
  MaybeCache(right, cache_map_side);
  auto out = Join(left, right, 3).Collect();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::vector<std::pair<int, std::pair<int, int>>>{};
}

// Runs `run` with the map side streamed and cached. The two outputs must be
// bit-identical, and each, sorted by key, must equal `oracle` exactly.
template <typename Run, typename Row>
void ExpectPathsMatchOracle(Run run, const std::vector<Row>& oracle) {
  ASSERT_FALSE(oracle.empty());
  std::vector<Row> streamed;
  for (bool cached : {false, true}) {
    EngineHarness h;
    std::vector<Row> got = run(&h.ctx(), cached);
    EXPECT_EQ(StableSortedByKey(got), oracle) << "cached=" << cached;
    const EngineCounters& counters = h.ctx().counters();
    if (cached) {
      EXPECT_EQ(counters.shuffle_fused_bucket_chains.load(), 0u);
      EXPECT_GT(counters.shuffle_rows_bucketed_unfused.load(), 0u);
      EXPECT_EQ(got, streamed);
    } else {
      EXPECT_GT(counters.shuffle_fused_bucket_chains.load(), 0u);
      EXPECT_EQ(counters.shuffle_rows_bucketed_unfused.load(), 0u);
      streamed = std::move(got);
    }
  }
}

// The ReduceByKey grid only catches a reordered fold if the combiner sees
// order: composition must be associative but not commutative on the rows the
// grid folds, and reversing each key's rows must change its result.
TEST(ShufflePathTest, ComposeIsAssociativeButNotCommutative) {
  const auto rows = MapRows(SkewedPairs(6000, 37), ToAffine);
  const uint64_t f = rows[1].second, g = rows[2].second, h = rows[3].second;
  EXPECT_EQ(Compose(Compose(f, g), h), Compose(f, Compose(g, h)));
  EXPECT_NE(Compose(f, g), Compose(g, f));
  EXPECT_NE(Compose(g, h), Compose(h, g));

  const auto forward = FoldOracle(rows, Compose);
  const std::vector<std::pair<int, uint64_t>> backward(rows.rbegin(), rows.rend());
  const auto reversed = FoldOracle(backward, Compose);
  ASSERT_EQ(forward.size(), reversed.size());
  for (size_t i = 0; i < forward.size(); ++i) {
    EXPECT_NE(forward[i].second, reversed[i].second) << "key " << forward[i].first;
  }
}

// Both map-side paths bucket every row once: 6000 rows into the streamed
// path's counter or the cached path's, never both, with the same combiner
// hits.
TEST(ShufflePathTest, ReduceByKeyStreamedMatchesCachedMapSide) {
  std::vector<std::pair<int, uint64_t>> streamed, cached;
  uint64_t streamed_hits = 0;
  {
    EngineHarness h;
    streamed = RunReduceByKey(&h.ctx(), 4);
    EXPECT_EQ(h.ctx().counters().shuffle_fused_bucket_chains.load(), 5u);
    EXPECT_EQ(h.ctx().counters().shuffle_rows_bucketed_fused.load(), 6000u);
    EXPECT_EQ(h.ctx().counters().shuffle_rows_bucketed_unfused.load(), 0u);
    streamed_hits = h.ctx().counters().shuffle_combine_hits.load();
    EXPECT_GT(streamed_hits, 0u);
  }
  {
    EngineHarness h;
    cached = RunReduceByKey(&h.ctx(), 4, /*cache_map_side=*/true);
    EXPECT_EQ(h.ctx().counters().shuffle_fused_bucket_chains.load(), 0u);
    EXPECT_EQ(h.ctx().counters().shuffle_rows_bucketed_fused.load(), 0u);
    EXPECT_EQ(h.ctx().counters().shuffle_rows_bucketed_unfused.load(), 6000u);
    EXPECT_EQ(h.ctx().counters().shuffle_combine_hits.load(), streamed_hits);
  }
  ASSERT_FALSE(streamed.empty());
  EXPECT_EQ(streamed, cached);
}

TEST(ShufflePathTest, ReduceByKeyMatchesFoldOracle) {
  ExpectPathsMatchOracle([](FlintContext* ctx, bool cached) {
                           return RunReduceByKey(ctx, 4, cached);
                         },
                         FoldOracle(MapRows(SkewedPairs(6000, 37), ToAffine), Compose));
}

TEST(ShufflePathTest, NonCommutativeCombineIdenticalOnAllPaths) {
  ExpectPathsMatchOracle(RunStringConcat,
                         FoldOracle(MapRows(SkewedPairs(2000, 23), ToText), Concat));
}

TEST(ShufflePathTest, GroupByKeyIdenticalOnAllPaths) {
  ExpectPathsMatchOracle(RunGroupByKey, GroupOracle(MapRows(SkewedPairs(4000, 29), XorFive)));
}

TEST(ShufflePathTest, JoinIdenticalOnAllPaths) {
  ExpectPathsMatchOracle(RunJoin, JoinOracle(MapRows(SkewedPairs(1500, 19), Lift),
                                             MapRows(SkewedPairs(900, 19), Negate)));
}

// The reduce output read key-sorted must not depend on how many reduce
// partitions the shuffle used (the per-key fold order is partition-count
// invariant: map-side row order, then bucket-index order).
TEST(ShufflePathTest, ReduceByKeyDeterministicAcrossNumReduce) {
  std::vector<std::pair<int, uint64_t>> reference;
  {
    EngineHarness h;
    reference = StableSortedByKey(RunReduceByKey(&h.ctx(), 1));
    ASSERT_FALSE(reference.empty());
  }
  for (int num_reduce : {2, 3, 7}) {
    EngineHarness h;
    EXPECT_EQ(StableSortedByKey(RunReduceByKey(&h.ctx(), num_reduce)), reference)
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
                            [](int a, int b) { return a + b; });
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
// `shuffled` routes both inputs through Identity first. `cached` caches the
// inputs the operators read, so the narrow plan reads cached partitions and
// the shuffled plan's map sides are built before they are bucketed.
BinaryResults RunBinaryOps(FlintContext* ctx, int n, int keys, bool shuffled, bool cached) {
  KeyedInputs in = CopartitionedInputs(ctx, n, keys);
  if (shuffled) {
    in.unique = Identity(in.unique);
    in.dups = Identity(in.dups);
  }
  MaybeCache(in.unique, cached);
  MaybeCache(in.dups, cached);
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
// equals the shuffled oracle row for row, with its inputs cached or streamed
// (the shuffled oracle's map sides likewise). N = 3 and 5
// exercise the `h % n` bucket rule, 4 and 8 the mask; 8 partitions over 3
// keys leave most partitions empty.
TEST(ShufflePathTest, CopartitionedBinaryOpsMatchShuffledOracle) {
  const std::vector<std::pair<int, int>> cases = {{4, 19}, {3, 19}, {5, 23}, {8, 3}};
  for (const auto& [n, keys] : cases) {
    for (bool cached : {false, true}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " keys=" + std::to_string(keys) +
                   " cached=" + std::to_string(cached));
      EngineHarness h;
      const BinaryResults narrow = RunBinaryOps(&h.ctx(), n, keys, /*shuffled=*/false, cached);
      const BinaryResults oracle = RunBinaryOps(&h.ctx(), n, keys, /*shuffled=*/true, cached);
      EXPECT_EQ(narrow.shuffles, 0u);
      EXPECT_EQ(oracle.shuffles, 6u);
      ASSERT_FALSE(oracle.join.empty());
      EXPECT_TRUE(narrow.SameRows(oracle));
    }
  }
}

// Matching key partitioning is not enough: the partition count must equal
// num_reduce, or the rows would sit in the wrong partitions. A side that
// matches is still read in place.
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
  EXPECT_EQ(ctx->shuffles().NumShuffles() - before, 1u);  // only `three`
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

  // Set: the shuffle producers, both binary operators on any plan, and the
  // checked declaration.
  EXPECT_EQ(reduced.raw()->key_partitions(), 5);
  EXPECT_EQ(grouped.raw()->key_partitions(), 3);
  EXPECT_EQ(Join(reduced, reduced, 5).raw()->key_partitions(), 5);  // narrow
  EXPECT_EQ(Join(base, reduced, 6).raw()->key_partitions(), 6);     // shuffled
  EXPECT_EQ(CoGroup(reduced, reduced, 5).raw()->key_partitions(), 5);
  EXPECT_EQ(CoGroup(reduced, base, 2).raw()->key_partitions(), 2);

  EXPECT_EQ(KeyPartitioned(reduced.Map(kv)).raw()->key_partitions(), 5);
  EXPECT_EQ(KeyPartitioned(base).raw()->key_partitions(), 4);

  // Kept: MapValues cannot move a key, Filter cannot move or reorder a row.
  EXPECT_EQ(MapValues(reduced, [](int v) { return v * 2; }).raw()->key_partitions(), 5);
  EXPECT_EQ(MapValues(base, [](int v) { return v; }).raw()->key_partitions(), 0);
  EXPECT_EQ(reduced.Filter([](const std::pair<int, int>&) { return true; })
                .raw()
                ->key_partitions(),
            5);
  EXPECT_EQ(base.Filter([](const std::pair<int, int>&) { return true; }).raw()->key_partitions(),
            0);

  // Dropped: everything else, even where the keys happen to survive.
  EXPECT_EQ(base.raw()->key_partitions(), 0);
  EXPECT_EQ(generated.raw()->key_partitions(), 0);
  EXPECT_EQ(reduced.Map(kv).raw()->key_partitions(), 0);
  EXPECT_EQ(reduced.FlatMap([](const std::pair<int, int>& p) {
                       return std::vector<std::pair<int, int>>{p};
                     }).raw()->key_partitions(),
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

// A Join or CoGroup with one input already key-partitioned into num_reduce
// shuffles only the other input, as Spark's CoGroupedRDD does, and equals
// the oracle that shuffles both, with either side partitioned.
TEST(ShufflePathTest, OneSidedJoinAndCoGroupShuffleOneSide) {
  for (const auto& [n, keys] : std::vector<std::pair<int, int>>{{4, 19}, {3, 19}, {8, 3}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " keys=" + std::to_string(keys));
    EngineHarness h;
    FlintContext* ctx = &h.ctx();
    KeyedInputs in = CopartitionedInputs(ctx, n, keys);
    auto loose = Identity(in.dups);
    auto expect_one_shuffle = [&](const RddPtr& rdd, size_t before) {
      EXPECT_EQ(ctx->shuffles().NumShuffles() - before, 1u) << rdd->name();
      ASSERT_EQ(rdd->deps().size(), 2u);
      EXPECT_NE(rdd->deps()[0].type, rdd->deps()[1].type) << rdd->name();
      EXPECT_EQ(rdd->key_partitions(), n);
    };

    size_t before = ctx->shuffles().NumShuffles();
    auto join_left = Join(in.unique, loose, n);
    expect_one_shuffle(join_left.raw(), before);
    before = ctx->shuffles().NumShuffles();
    auto join_right = Join(loose, in.unique, n);
    expect_one_shuffle(join_right.raw(), before);
    before = ctx->shuffles().NumShuffles();
    auto cogroup_left = CoGroup(in.unique, loose, n);
    expect_one_shuffle(cogroup_left.raw(), before);
    before = ctx->shuffles().NumShuffles();
    auto cogroup_right = CoGroup(loose, in.unique, n);
    expect_one_shuffle(cogroup_right.raw(), before);

    const auto oracle_left = CollectOrEmpty(Join(Identity(in.unique), loose, n));
    ASSERT_FALSE(oracle_left.empty());
    EXPECT_EQ(CollectOrEmpty(join_left), oracle_left);
    EXPECT_EQ(CollectOrEmpty(join_right), CollectOrEmpty(Join(loose, Identity(in.unique), n)));
    EXPECT_EQ(CollectOrEmpty(cogroup_left),
              CollectOrEmpty(CoGroup(Identity(in.unique), loose, n)));
    EXPECT_EQ(CollectOrEmpty(cogroup_right),
              CollectOrEmpty(CoGroup(loose, Identity(in.unique), n)));
  }
}

// ReduceByKey and GroupByKey over an input already key-partitioned into
// num_reduce fold and group in place. With repeated keys per partition and
// a non-commutative combine, the narrow plan equals the shuffled oracle row
// for row, streamed or cached.
TEST(ShufflePathTest, NarrowReduceAndGroupMatchShuffledOracle) {
  for (const auto& [n, keys] : std::vector<std::pair<int, int>>{{4, 19}, {5, 23}, {8, 3}}) {
    for (bool cached : {false, true}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " keys=" + std::to_string(keys) +
                   " cached=" + std::to_string(cached));
      EngineHarness h;
      FlintContext* ctx = &h.ctx();
      auto text = MapValues(CopartitionedInputs(ctx, n, keys).dups,
                            [](int v) { return std::to_string(v); });
      MaybeCache(text, cached);
      const size_t before = ctx->shuffles().NumShuffles();
      auto reduced = ReduceByKey(text, n, Concat);
      auto grouped = GroupByKey(text, n);
      EXPECT_EQ(ctx->shuffles().NumShuffles() - before, 0u);
      for (const RddPtr& rdd : {reduced.raw(), grouped.raw()}) {
        ASSERT_EQ(rdd->deps().size(), 1u);
        EXPECT_EQ(rdd->deps()[0].type, DepType::kNarrowOneToOne) << rdd->name();
        EXPECT_EQ(rdd->key_partitions(), n);
      }
      const auto oracle = CollectOrEmpty(ReduceByKey(Identity(text), n, Concat));
      ASSERT_FALSE(oracle.empty());
      EXPECT_TRUE(std::any_of(oracle.begin(), oracle.end(), [](const auto& kv) {
        return kv.second.find(',') != std::string::npos;
      })) << "no key folded more than one value";
      EXPECT_EQ(CollectOrEmpty(reduced), oracle);
      EXPECT_EQ(CollectOrEmpty(grouped), CollectOrEmpty(GroupByKey(Identity(text), n)));
    }
  }
}

// KeyPartitioned over rows laid out in Parallelize's contiguous ranges: two
// partitions of two rows each.
PairRdd<int, int> DeclaredPairs(FlintContext* ctx, const std::vector<int>& keys) {
  std::vector<std::pair<int, int>> rows;
  for (int k : keys) {
    rows.emplace_back(k, k * 10);
  }
  return KeyPartitioned(Parallelize(ctx, rows, 2).Map(XorFive), "declared");
}

// One attempt per task, so a failed check fails the job at once.
EngineHarnessOptions SingleAttempt() {
  EngineHarnessOptions options;
  options.speculation.max_attempts_per_task = 1;
  return options;
}

// A true declaration passes its rows through unchanged, and its consumers
// read it in place.
TEST(ShufflePathTest, KeyPartitionedPassesRowsOfATrueDeclaration) {
  EngineHarness h{SingleAttempt()};
  FlintContext* ctx = &h.ctx();
  // Under KeyPartitionOf(k, 2) even keys live in partition 0, odd in 1.
  auto declared = DeclaredPairs(ctx, {0, 2, 2, 4, 1, 1, 3, 5});
  EXPECT_EQ(declared.raw()->key_partitions(), 2);
  const std::vector<std::pair<int, int>> rows = CollectOrEmpty(declared);
  EXPECT_EQ(rows, (std::vector<std::pair<int, int>>{
                      {0, 5}, {2, 17}, {2, 17}, {4, 45}, {1, 15}, {1, 15}, {3, 27}, {5, 55}}));
  const size_t before = ctx->shuffles().NumShuffles();
  auto sums = ReduceByKey(declared, 2, [](int a, int b) { return a + b; });
  EXPECT_EQ(ctx->shuffles().NumShuffles() - before, 0u);
  EXPECT_EQ(CollectOrEmpty(sums), (std::vector<std::pair<int, int>>{
                                      {0, 5}, {2, 34}, {4, 45}, {1, 30}, {3, 27}, {5, 55}}));
}

// A false declaration fails the task that streams the bad row with an
// Internal status naming the RDD and the partition, whether the declared
// RDD is collected itself or fused into a narrow consumer's chain.
TEST(ShufflePathTest, KeyPartitionedRejectsAFalseDeclaration) {
  struct Case {
    const char* what;
    std::vector<int> keys;
    const char* partition;
    const char* reason;
  };
  const std::vector<Case> cases = {
      // Key 3 routes to partition 1 but sits in partition 0.
      {"wrong partition", {0, 3, 1, 5, 7, 9}, "partition 0 of 2", "belongs in partition 1"},
      // Partition 1 holds 5 before 1.
      {"unsorted", {0, 2, 4, 5, 1, 3}, "partition 1 of 2", "breaks key order"},
  };
  for (const Case& c : cases) {
    for (bool through_consumer : {false, true}) {
      SCOPED_TRACE(std::string(c.what) + (through_consumer ? " via ReduceByKey" : " collected"));
      EngineHarness h{SingleAttempt()};
      auto declared = DeclaredPairs(&h.ctx(), c.keys);
      Status status =
          through_consumer
              ? ReduceByKey(declared, 2, [](int a, int b) { return a + b; }).Collect().status()
              : declared.Collect().status();
      EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
      EXPECT_NE(status.message().find("KeyPartitioned rdd 'declared'"), std::string::npos)
          << status.ToString();
      EXPECT_NE(status.message().find(c.partition), std::string::npos) << status.ToString();
      EXPECT_NE(status.message().find(c.reason), std::string::npos) << status.ToString();
    }
  }
}

// --- the key-run walk ---

// `rows` laid out already key-partitioned into `n`: partition p holds the
// rows whose key KeyPartitionOf sends to p, stably sorted by key, so each
// key is one run in input order. Declared through KeyPartitioned, so keyed
// operators into `n` read it in place.
template <typename K, typename V>
PairRdd<K, V> InPlace(FlintContext* ctx, const std::vector<std::pair<K, V>>& rows, int n) {
  std::vector<std::vector<std::pair<K, V>>> parts(static_cast<size_t>(n));
  for (const auto& row : StableSortedByKey(rows)) {
    parts[static_cast<size_t>(KeyPartitionOf(row.first, n))].push_back(row);
  }
  return KeyPartitioned(Generate(ctx, n, [parts](int p) { return parts[static_cast<size_t>(p)]; }),
                        "in-place");
}

// Runs Join(left, right, n) over `left_rows` read in place and `right_rows`
// shuffled from 3 map partitions, and the mirror plan; each must equal the
// nested-loop oracle, read key-sorted.
template <typename K, typename V, typename W>
void ExpectMixedJoinsMatchOracle(const std::vector<std::pair<K, V>>& left_rows,
                                 const std::vector<std::pair<K, W>>& right_rows, int n) {
  EngineHarness h;
  FlintContext* ctx = &h.ctx();
  auto left = InPlace(ctx, left_rows, n);
  auto right = Parallelize(ctx, right_rows, 3);
  auto joined = Join(left, right, n);
  ASSERT_EQ(joined.raw()->deps().size(), 2u);
  EXPECT_EQ(joined.raw()->deps()[0].type, DepType::kNarrowOneToOne);
  EXPECT_EQ(joined.raw()->deps()[1].type, DepType::kShuffle);
  EXPECT_EQ(StableSortedByKey(CollectOrEmpty(joined)), JoinOracle(left_rows, right_rows));
  EXPECT_EQ(StableSortedByKey(CollectOrEmpty(Join(right, left, n))),
            JoinOracle(right_rows, left_rows));
}

// PageRank's `links` shape: vector values, some empty. The in-place side
// repeats a key up to three times in one run; the shuffled side holds each
// key once in each of its 3 map partitions, so a reduce partition merges a
// key's rows from 3 buckets. Multiples of 5 and keys 30-39 are on the
// shuffled side only.
TEST(ShufflePathTest, JoinVectorValuesOnAMixedPlanMatchesOracle) {
  std::vector<std::pair<int, std::vector<int>>> left, right;
  for (int r = 0; r < 3; ++r) {
    for (int k = 0; k < 30; ++k) {
      if (k % 5 != 0 && r <= k % 3) {
        left.emplace_back(k, std::vector<int>(static_cast<size_t>(k % 4), k * 10 + r));
      }
    }
  }
  for (int i = 0; i < 120; ++i) {
    right.emplace_back((i * 7) % 40, std::vector<int>{i, -i});
  }
  for (int n : {4, 3}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    ExpectMixedJoinsMatchOracle(left, right, n);
  }
}

// Keys on one side only contribute no row, whether the sides overlap in
// part or not at all, on the in-place plan and on the fully shuffled one.
TEST(ShufflePathTest, JoinKeysOnOneSideOnlyMatchOracle) {
  auto rows = [](int first_key, int last_key, int step) {
    std::vector<std::pair<int, int>> out;
    for (int r = 0; r < 2; ++r) {
      for (int k = first_key; k <= last_key; k += step) {
        out.emplace_back(k, k * 100 + r);
      }
    }
    return out;
  };
  const auto evens = rows(0, 38, 2);
  const auto overlap = rows(20, 59, 1);
  const auto odds = rows(1, 39, 2);
  ExpectMixedJoinsMatchOracle(evens, overlap, 4);
  ExpectMixedJoinsMatchOracle(evens, odds, 4);
  EngineHarness h;
  FlintContext* ctx = &h.ctx();
  EXPECT_TRUE(CollectOrEmpty(Join(InPlace(ctx, evens, 4), InPlace(ctx, odds, 4), 4)).empty());
  EXPECT_TRUE(CollectOrEmpty(Join(Parallelize(ctx, evens, 2), Parallelize(ctx, odds, 3), 4))
                  .empty());
  ASSERT_FALSE(JoinOracle(evens, overlap).empty());
}

// Eight partitions over three keys leave most reduce partitions empty on
// both sides; an empty side, in place or shuffled, joins to nothing.
TEST(ShufflePathTest, JoinEmptyPartitionsAndAnEmptySide) {
  std::vector<std::pair<int, int>> few;
  for (int i = 0; i < 12; ++i) {
    few.emplace_back(i % 3, i);
  }
  ExpectMixedJoinsMatchOracle(few, few, 8);
  const std::vector<std::pair<int, int>> none;
  ExpectMixedJoinsMatchOracle(none, few, 8);
  ExpectMixedJoinsMatchOracle(few, none, 4);
  EngineHarness h;
  FlintContext* ctx = &h.ctx();
  EXPECT_TRUE(CollectOrEmpty(Join(InPlace(ctx, none, 4), InPlace(ctx, few, 4), 4)).empty());
}

// A key with no default constructor: the walker only points at keys and
// copies each into an output row.
class Tag {
 public:
  explicit Tag(int id) : id_(id) {}
  bool operator<(const Tag& o) const { return id_ < o.id_; }
  bool operator==(const Tag& o) const { return id_ == o.id_; }
  friend size_t HashOf(const Tag& t) { return static_cast<size_t>(t.id_) * 0x9e3779b97f4a7c15ULL; }

 private:
  int id_;
};
static_assert(!std::is_default_constructible_v<Tag>);

TEST(ShufflePathTest, KeyRunWalkNeedsNoDefaultConstructibleKey) {
  std::vector<std::pair<Tag, int>> left, right;
  for (int i = 0; i < 60; ++i) {
    left.emplace_back(Tag(i % 11), i);
    right.emplace_back(Tag((i * 5) % 17), -i);
  }
  ExpectMixedJoinsMatchOracle(left, right, 4);
  EngineHarness h;
  FlintContext* ctx = &h.ctx();
  auto shuffled = Parallelize(ctx, left, 3);
  EXPECT_EQ(StableSortedByKey(CollectOrEmpty(GroupByKey(shuffled, 4))), GroupOracle(left));
  EXPECT_EQ(StableSortedByKey(CollectOrEmpty(GroupByKey(InPlace(ctx, left, 4), 4))),
            GroupOracle(left));
  auto sum = [](int a, int b) { return a * 3 + b; };
  EXPECT_EQ(StableSortedByKey(CollectOrEmpty(ReduceByKey(InPlace(ctx, left, 4), 4, sum))),
            FoldOracle(left, sum));
}

}  // namespace
}  // namespace flint
