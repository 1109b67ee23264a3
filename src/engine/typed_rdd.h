// The typed, Spark-like public API. TypedRdd<T> wraps a type-erased Rdd with
// the record type; transformations build LambdaRdd closures, so the engine
// core stays non-templated. PairRdd<K, V> (an alias) additionally supports
// the shuffle transformations (ReduceByKey, GroupByKey, Join).
//
// Closures run on executor threads and must be pure functions of their
// inputs: RDDs are immutable and may be recomputed at any time after a
// revocation, so a side-effecting closure would observe duplicated work.

#ifndef SRC_ENGINE_TYPED_RDD_H_
#define SRC_ENGINE_TYPED_RDD_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/flat_hash.h"
#include "src/common/status.h"
#include "src/engine/context.h"
#include "src/engine/fusion.h"
#include "src/engine/hashing.h"
#include "src/engine/task_context.h"

namespace flint {

namespace rdd_internal {

// Builds a streaming operator (Map, Filter, FlatMap, Sample, the Reduce
// partial) over `parent` from its sink alone. `make_sink(partition, down)`
// returns the operator's sink (a unique_ptr to a sink of the parent's row
// type) feeding `down`, a TypedSink<Out>. The RDD's FusionOps stack that sink
// into longer chains; its Compute is a chain run headed by this operator into
// a collect terminal. `keeps_rows`: the operator emits one row per input
// row, so the output can be sized from the input.
template <typename Out, typename MakeSink>
RddPtr MakeStreamingRdd(FlintContext* ctx, const RddPtr& parent, std::string name,
                        bool keeps_rows, MakeSink make_sink) {
  auto ops = std::make_shared<FusionOps>();
  ops->adapt = [make_sink](int partition, FusionSink& down) -> std::unique_ptr<FusionSink> {
    return make_sink(partition, SinkAs<Out>(down));
  };
  ops->keeps_rows = keeps_rows;
  RddPtr out = ctx->CreateRdd(
      std::move(name), parent->num_partitions(),
      {Dependency{DepType::kNarrowOneToOne, parent, nullptr}},
      [ops, parent](int partition, TaskContext& tc) -> Result<PartitionPtr> {
        CollectTerminal<Out> terminal;
        FLINT_RETURN_IF_ERROR(
            tc.RunChain(ops.get(), parent, partition,
                        [&terminal](size_t rows, bool rows_kept) -> FusionSink& {
                          if (rows_kept) {
                            terminal.Reserve(rows);
                          }
                          return terminal;
                        })
                .status());
        return terminal.Finish();
      });
  out->set_fusion_ops(std::move(ops));
  return out;
}

}  // namespace rdd_internal

template <typename T>
class TypedRdd {
 public:
  using value_type = T;

  TypedRdd() = default;
  TypedRdd(FlintContext* ctx, RddPtr rdd) : ctx_(ctx), rdd_(std::move(rdd)) {}

  FlintContext* ctx() const { return ctx_; }
  const RddPtr& raw() const { return rdd_; }
  bool valid() const { return rdd_ != nullptr; }
  int num_partitions() const { return rdd_->num_partitions(); }
  const std::string& name() const { return rdd_->name(); }

  // Requests caching of computed partitions (Spark's persist()). Returns
  // *this for chaining.
  TypedRdd<T>& Cache() {
    rdd_->set_cache(true);
    return *this;
  }

  // Spark's unpersist(): drops cached partitions cluster-wide. No-op on a
  // default-constructed handle.
  void Unpersist() {
    if (ctx_ != nullptr && rdd_ != nullptr) {
      ctx_->UnpersistRdd(rdd_);
    }
  }

  // --- narrow transformations ---

  template <typename F>
  auto Map(F fn, std::string name = "map") const {
    using U = std::decay_t<std::invoke_result_t<F, const T&>>;
    return TypedRdd<U>(ctx_, rdd_internal::MakeStreamingRdd<U>(
                                 ctx_, rdd_, std::move(name), /*keeps_rows=*/true,
                                 [fn](int, TypedSink<U>& down) {
                                   return std::make_unique<fusion_internal::MapSink<T, U, F>>(
                                       fn, down);
                                 }));
  }

  // Keeps the parent's key partitioning: dropping rows moves and reorders
  // none of the rest.
  template <typename F>
  TypedRdd<T> Filter(F pred, std::string name = "filter") const {
    RddPtr out = rdd_internal::MakeStreamingRdd<T>(
        ctx_, rdd_, std::move(name), /*keeps_rows=*/false, [pred](int, TypedSink<T>& down) {
          return std::make_unique<fusion_internal::FilterSink<T, F>>(pred, down);
        });
    out->set_key_partitions(rdd_->key_partitions());
    return TypedRdd<T>(ctx_, std::move(out));
  }

  // fn: const std::vector<T>& -> std::vector<U>, applied per partition.
  template <typename F>
  auto MapPartitions(F fn, std::string name = "mapPartitions") const {
    using Vec = std::decay_t<std::invoke_result_t<F, const std::vector<T>&>>;
    using U = typename Vec::value_type;
    RddPtr parent = rdd_;
    RddPtr out = ctx_->CreateRdd(
        std::move(name), parent->num_partitions(),
        {Dependency{DepType::kNarrowOneToOne, parent, nullptr}},
        [parent, fn](int i, TaskContext& tc) -> Result<PartitionPtr> {
          FLINT_ASSIGN_OR_RETURN(PartitionPtr in, tc.GetPartition(parent, i));
          return MakePartition(fn(Rows<T>(*in)));
        });
    return TypedRdd<U>(ctx_, std::move(out));
  }

  // fn: const T& -> std::vector<U>; results are concatenated.
  template <typename F>
  auto FlatMap(F fn, std::string name = "flatMap") const {
    using U = typename std::decay_t<std::invoke_result_t<F, const T&>>::value_type;
    return TypedRdd<U>(ctx_, rdd_internal::MakeStreamingRdd<U>(
                                 ctx_, rdd_, std::move(name), /*keeps_rows=*/false,
                                 [fn](int, TypedSink<U>& down) {
                                   return std::make_unique<fusion_internal::FlatMapSink<T, U, F>>(
                                       fn, down);
                                 }));
  }

  // --- actions (run a job) ---

  Result<std::vector<T>> Collect() const {
    FLINT_ASSIGN_OR_RETURN(std::vector<PartitionPtr> parts, ctx_->Materialize(rdd_));
    size_t total = 0;
    for (const auto& p : parts) {
      total += p->NumRecords();
    }
    std::vector<T> out;
    out.reserve(total);
    for (const auto& p : parts) {
      const auto& rows = Rows<T>(*p);
      out.insert(out.end(), rows.begin(), rows.end());
    }
    return out;
  }

  Result<uint64_t> Count() const {
    FLINT_ASSIGN_OR_RETURN(std::vector<PartitionPtr> parts, ctx_->Materialize(rdd_));
    uint64_t n = 0;
    for (const auto& p : parts) {
      n += p->NumRecords();
    }
    return n;
  }

  // `fn` must be associative: each partition folds to at most one partial
  // value on its executor, and the driver folds the partials in partition
  // order — so only associativity (not commutativity) is required, and the
  // result matches a left fold over the concatenated partitions exactly.
  // An empty RDD is a FailedPrecondition.
  template <typename F>
  Result<T> Reduce(F fn) const {
    FLINT_ASSIGN_OR_RETURN(std::optional<T> acc, MaybeReduce(std::move(fn)));
    if (!acc.has_value()) {
      return FailedPrecondition("Reduce on empty RDD");
    }
    return std::move(*acc);
  }

  // Reduce for an RDD that may be empty: the same single job and fold, with
  // nullopt for no rows.
  template <typename F>
  Result<std::optional<T>> MaybeReduce(F fn) const {
    RddPtr partial = rdd_internal::MakeStreamingRdd<T>(
        ctx_, rdd_, "reduce-partial", /*keeps_rows=*/false, [fn](int, TypedSink<T>& down) {
          return std::make_unique<fusion_internal::FoldSink<T, F>>(fn, down);
        });
    FLINT_ASSIGN_OR_RETURN(std::vector<T> partials,
                           TypedRdd<T>(ctx_, std::move(partial)).Collect());
    if (partials.empty()) {
      return std::optional<T>();
    }
    T acc = std::move(partials.front());
    for (size_t i = 1; i < partials.size(); ++i) {
      acc = fn(acc, partials[i]);
    }
    return std::optional<T>(std::move(acc));
  }

  // Forces computation (and caching/checkpoint writes) without collecting.
  Status Materialize() const { return ctx_->Materialize(rdd_).status(); }

 private:
  FlintContext* ctx_ = nullptr;
  RddPtr rdd_;
};

template <typename K, typename V>
using PairRdd = TypedRdd<std::pair<K, V>>;

// --- sources ---

// Splits driver-resident data into `num_partitions` partitions. Recomputation
// re-reads from the (simulated) origin store, paying the origin bandwidth.
template <typename T>
TypedRdd<T> Parallelize(FlintContext* ctx, std::vector<T> data, int num_partitions,
                        std::string name = "parallelize") {
  auto shared = std::make_shared<const std::vector<T>>(std::move(data));
  RddPtr out = ctx->CreateRdd(
      std::move(name), num_partitions, {},
      [shared, num_partitions](int i, TaskContext& tc) -> Result<PartitionPtr> {
        const size_t n = shared->size();
        const size_t begin = n * static_cast<size_t>(i) / static_cast<size_t>(num_partitions);
        const size_t end = n * (static_cast<size_t>(i) + 1) / static_cast<size_t>(num_partitions);
        std::vector<T> rows(shared->begin() + static_cast<ptrdiff_t>(begin),
                            shared->begin() + static_cast<ptrdiff_t>(end));
        PartitionPtr part = MakePartition(std::move(rows));
        FlintContext& ctx = tc.context();
        ctx.latency().Transfer(Layer::kOriginRead, part->SizeBytes(),
                               ctx.config().origin_read_bandwidth_bytes_per_s);
        return part;
      });
  return TypedRdd<T>(ctx, std::move(out));
}

// Deterministically generates partition i via `fn(i)`. Used by the synthetic
// workload generators; recomputation pays the origin-read model like a real
// re-fetch + deserialize would.
template <typename F>
auto Generate(FlintContext* ctx, int num_partitions, F fn, std::string name = "generate") {
  using Vec = std::decay_t<std::invoke_result_t<F, int>>;
  using T = typename Vec::value_type;
  RddPtr out = ctx->CreateRdd(std::move(name), num_partitions, {},
                              [fn](int i, TaskContext& tc) -> Result<PartitionPtr> {
                                PartitionPtr part = MakePartition(fn(i));
                                FlintContext& ctx = tc.context();
                                ctx.latency().Transfer(
                                    Layer::kOriginRead, part->SizeBytes(),
                                    ctx.config().origin_read_bandwidth_bytes_per_s);
                                return part;
                              });
  return TypedRdd<T>(ctx, std::move(out));
}

// --- shuffle transformations ---
//
// The map side of every shuffle is a bucket *sink* (see BucketTerminal in
// fusion.h): the narrow chain above the shuffle can stream records straight
// into the reduce-side buckets without ever materializing the map-side
// partition (TaskContext::ComputeShuffleBuckets). Every sink emits its
// buckets key-sorted, which the reduce side exploits with a k-way
// merge + combine instead of rebuilding a hash table. The map-side combiner
// uses FlatHashMap (flat_hash.h), whose insertion-order iteration keeps it
// deterministic.
//
// An input already key-partitioned into the reduce count
// (Rdd::key_partitions) is not shuffled: reduce partition j reads its
// partition j over a narrow dependency as its only bucket
// (rdd_internal::KeyedInput, ReadBuckets).
// A shuffle would deliver the same rows in the same order: map partition j
// holds only keys routed to j, key-sorted, so it is bucket j of the one map
// task with anything for reduce j. Both plans are bit-identical.

// The one key-to-partition rule. Both bucket sinks route rows by it, and a
// key-partitioned RDD (Rdd::key_partitions) promises that every row sits in
// the partition it names. For a power-of-two count (the common case)
// `h & (n-1)` equals `h % n` and spares the hot loops a hardware division.
template <typename K>
int KeyPartitionOf(const K& key, int num_partitions) {
  const size_t h = HashOf(key);
  const auto n = static_cast<size_t>(num_partitions);
  return static_cast<int>((n & (n - 1)) == 0 ? (h & (n - 1)) : (h % n));
}

namespace rdd_internal {

// Plain hash-partition of pair rows into buckets, no combining. Finish()
// stable-sorts each bucket by key: per-key row order stays (arrival order),
// i.e. (map partition, row index), while the sorted-bucket invariant enables
// the reduce-side merge.
template <typename K, typename V>
class PlainBucketSink final : public TypedSink<std::pair<K, V>> {
 public:
  PlainBucketSink(int num_buckets, size_t expected_rows)
      : buckets_(static_cast<size_t>(num_buckets)) {
    // A uniform hash puts ~rows/buckets records in each bucket; reserving
    // that up front avoids the per-bucket reallocation churn.
    const size_t expect = expected_rows / buckets_.size() + 1;
    for (auto& b : buckets_) {
      b.reserve(expect);
    }
  }

  void Push(const std::pair<K, V>* rec, size_t n) override {
    rows_in_ += n;
    auto* const buckets = buckets_.data();
    const int num_buckets = static_cast<int>(buckets_.size());
    for (size_t i = 0; i < n; ++i) {
      buckets[KeyPartitionOf(rec[i].first, num_buckets)].push_back(rec[i]);
    }
  }

  std::vector<PartitionPtr> Finish() {
    std::vector<PartitionPtr> out;
    out.reserve(buckets_.size());
    for (auto& b : buckets_) {
      std::stable_sort(b.begin(), b.end(),
                       [](const auto& a, const auto& c) { return a.first < c.first; });
      out.push_back(MakePartition(std::move(b)));
    }
    return out;
  }

  uint64_t rows_in() const { return rows_in_; }

 private:
  std::vector<std::vector<std::pair<K, V>>> buckets_;
  uint64_t rows_in_ = 0;
};

// Map-side combining bucket sink (Spark's aggregator): per-bucket flat hash
// maps fold values in arrival order, Finish() sorts each bucket's unique
// keys. Combine-hit tallies flush into the engine counters once per sink.
template <typename K, typename V, typename Combine>
class CombineBucketSink final : public TypedSink<std::pair<K, V>> {
 public:
  CombineBucketSink(int num_buckets, size_t expected_rows, Combine combine,
                    EngineCounters* counters)
      : combine_(std::move(combine)), counters_(counters),
        maps_(static_cast<size_t>(num_buckets)) {
    // The combiner holds unique keys, not rows; low-cardinality aggregations
    // (the common case) would waste a table sized for rows/buckets on a
    // handful of keys, so cap the pre-size and let growth cover the rest.
    const size_t expect = std::min<size_t>(expected_rows / maps_.size() + 1, 1024);
    for (auto& m : maps_) {
      m.Reserve(expect);
    }
  }

  void Push(const std::pair<K, V>* rec, size_t n) override {
    rows_in_ += n;
    // Hot loop: hash once per row (the routing rule and the map probe share
    // it; both inline) and keep the hit count in a register, not a member
    // store per row.
    auto* const maps = maps_.data();
    const int num_buckets = static_cast<int>(maps_.size());
    uint64_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      const K& key = rec[i].first;
      auto [slot, inserted] = maps[KeyPartitionOf(key, num_buckets)].FindOrEmplaceHashed(
          HashOf(key), key, rec[i].second);
      if (!inserted) {
        *slot = combine_(*slot, rec[i].second);
        ++hits;
      }
    }
    combine_hits_ += hits;
  }

  std::vector<PartitionPtr> Finish() {
    counters_->shuffle_combine_hits.fetch_add(combine_hits_, std::memory_order_relaxed);
    std::vector<PartitionPtr> out;
    out.reserve(maps_.size());
    for (auto& m : maps_) {
      std::vector<std::pair<K, V>> rows = m.TakeEntries();
      // Keys are unique within a bucket, so the plain by-key sort is total.
      std::sort(rows.begin(), rows.end(),
                [](const auto& a, const auto& c) { return a.first < c.first; });
      out.push_back(MakePartition(std::move(rows)));
    }
    return out;
  }

  uint64_t rows_in() const { return rows_in_; }

 private:
  Combine combine_;
  EngineCounters* counters_;
  std::vector<FlatHashMap<K, V, KeyHasher<K>>> maps_;
  uint64_t rows_in_ = 0;
  uint64_t combine_hits_ = 0;
};

// Wraps a bucket sink (a sink with Finish() and rows_in()) as the
// type-erased terminal a shuffle's map side runs into.
template <typename Sink>
BucketTerminal MakeBucketTerminal(std::unique_ptr<Sink> sink) {
  Sink* raw = sink.get();
  BucketTerminal t;
  t.sink = std::move(sink);
  t.finish = [raw] { return raw->Finish(); };
  t.rows_in = [raw] { return raw->rows_in(); };
  return t;
}

template <typename K, typename V>
BucketTerminalFactory MakePlainBucketFactory() {
  return [](int num_buckets, size_t expected_rows) {
    return MakeBucketTerminal(std::make_unique<PlainBucketSink<K, V>>(num_buckets, expected_rows));
  };
}

template <typename K, typename V, typename Combine>
BucketTerminalFactory MakeCombineBucketFactory(Combine combine, EngineCounters* counters) {
  return [combine, counters](int num_buckets, size_t expected_rows) {
    return MakeBucketTerminal(std::make_unique<CombineBucketSink<K, V, Combine>>(
        num_buckets, expected_rows, combine, counters));
  };
}

// The one k-way walk over key-sorted buckets behind every keyed reduce; a
// key may repeat within a bucket as a contiguous run (PlainBucketSink output,
// or a key-partitioned input read in place). Next() moves to the smallest key
// left and marks each bucket's run of it; ForEach visits that key's values in
// place, in (bucket index, row) = (map partition, original row) order. The
// walker points into the buckets' rows, which the caller keeps alive, and
// never default-constructs or copies a K or a V.
template <typename K, typename V>
class KeyRunWalker {
 public:
  using Row = std::pair<K, V>;
  using Span = std::pair<const Row*, const Row*>;  // [first, second)

  explicit KeyRunWalker(const std::vector<PartitionPtr>& buckets) {
    for (const auto& b : buckets) {
      const auto& rows = Rows<Row>(*b);
      largest_ = std::max(largest_, rows.size());
      if (!rows.empty()) {
        cur_.emplace_back(rows.data(), rows.data() + rows.size());
      }
    }
    runs_.reserve(cur_.size());
  }

  // Advances to the next key; false once every bucket is exhausted.
  bool Next() {
    const K* min = nullptr;
    for (const Span& c : cur_) {
      if (c.first != c.second && (min == nullptr || c.first->first < *min)) {
        min = &c.first->first;
      }
    }
    if (min == nullptr) {
      return false;
    }
    runs_.clear();
    count_ = 0;
    key_ = min;
    for (Span& c : cur_) {
      const Row* begin = c.first;
      while (c.first != c.second && c.first->first == *min) {
        ++c.first;
      }
      if (c.first != begin) {
        runs_.emplace_back(begin, c.first);
        count_ += static_cast<size_t>(c.first - begin);
      }
    }
    return true;
  }

  // The current key, its row count over all buckets, and the largest
  // bucket's rows (the distinct keys when keys are unique per bucket).
  const K& key() const { return *key_; }
  size_t count() const { return count_; }
  size_t largest_bucket() const { return largest_; }

  // Calls fn(const V&) on each of the current key's values, in walk order.
  template <typename F>
  void ForEach(F&& fn) const {
    for (const Span& run : runs_) {
      for (const Row* row = run.first; row != run.second; ++row) {
        fn(row->second);
      }
    }
  }

 private:
  std::vector<Span> cur_;   // each non-empty bucket's unread rows
  std::vector<Span> runs_;  // the current key's runs, bucket order
  const K* key_ = nullptr;
  size_t count_ = 0;
  size_t largest_ = 0;
};

// Merge + combine: per key, the first value copied, then each later one
// folded in with `combine` in walk order, so an associative but
// non-commutative combine is deterministic. Output is key-sorted.
template <typename K, typename V, typename Combine>
std::vector<std::pair<K, V>> MergeCombineBuckets(const std::vector<PartitionPtr>& buckets,
                                                 const Combine& combine) {
  KeyRunWalker<K, V> walk(buckets);
  std::vector<std::pair<K, V>> out;
  out.reserve(walk.largest_bucket());
  while (walk.Next()) {
    bool first = true;
    walk.ForEach([&](const V& v) {
      if (first) {
        out.emplace_back(walk.key(), v);
        first = false;
      } else {
        out.back().second = combine(out.back().second, v);
      }
    });
  }
  return out;
}

// Merge + group: per key, its values in walk order, sized exactly. Output
// is key-sorted.
template <typename K, typename V>
std::vector<std::pair<K, std::vector<V>>> MergeGroupBuckets(
    const std::vector<PartitionPtr>& buckets) {
  KeyRunWalker<K, V> walk(buckets);
  std::vector<std::pair<K, std::vector<V>>> out;
  while (walk.Next()) {
    std::vector<V> vals;
    vals.reserve(walk.count());
    walk.ForEach([&](const V& v) { vals.push_back(v); });
    out.emplace_back(walk.key(), std::move(vals));
  }
  return out;
}

inline std::shared_ptr<ShuffleInfo> MakeShuffle(FlintContext* ctx, const RddPtr& map_side,
                                                int num_reduce, BucketTerminalFactory factory) {
  auto info = std::make_shared<ShuffleInfo>();
  info->shuffle_id = ctx->NextShuffleId();
  info->num_map_partitions = map_side->num_partitions();
  info->num_reduce_partitions = num_reduce;
  info->make_bucket_sink = std::move(factory);
  info->map_side = map_side;
  ctx->RegisterShuffleInfo(info);
  return info;
}

// How a keyed operator with `num_reduce` partitions reads one input: in
// place over a narrow dependency when the input is already key-partitioned
// into `num_reduce`, else through a new shuffle with `factory`'s buckets.
inline Dependency KeyedInput(FlintContext* ctx, const RddPtr& input, int num_reduce,
                             BucketTerminalFactory factory) {
  if (num_reduce > 0 && input->key_partitions() == num_reduce) {
    return Dependency{DepType::kNarrowOneToOne, input, nullptr};
  }
  return Dependency{DepType::kShuffle, input,
                    MakeShuffle(ctx, input, num_reduce, std::move(factory))};
}

// Reduce partition j's key-sorted buckets of one KeyedInput: the shuffle's
// buckets, or the in-place input's partition j as the only bucket.
inline Result<std::vector<PartitionPtr>> ReadBuckets(const Dependency& dep, int j,
                                                     TaskContext& tc) {
  if (dep.type == DepType::kShuffle) {
    return tc.FetchShuffle(dep.shuffle->shuffle_id, j);
  }
  FLINT_ASSIGN_OR_RETURN(PartitionPtr part, tc.GetPartition(dep.parent, j));
  return std::vector<PartitionPtr>{std::move(part)};
}

// Builds the two-input keyed RDD behind Join and CoGroup. `reduce(lbuckets,
// rbuckets, tc)` is the one reduce body every plan shares; it gets, per
// side, the key-sorted buckets holding output partition j's keys. Each side
// is a KeyedInput on its own, as in Spark's CoGroupedRDD: co-partitioned
// inputs join with no shuffle, and a join of one key-partitioned input
// shuffles only the other.
template <typename K, typename V, typename W, typename Reduce>
RddPtr MakeBinaryByKey(FlintContext* ctx, const RddPtr& left, const RddPtr& right,
                       int num_reduce, std::string name, Reduce reduce) {
  Dependency l = KeyedInput(ctx, left, num_reduce, MakePlainBucketFactory<K, V>());
  Dependency r = KeyedInput(ctx, right, num_reduce, MakePlainBucketFactory<K, W>());
  RddPtr out = ctx->CreateRdd(
      std::move(name), num_reduce, {l, r},
      [l, r, reduce](int j, TaskContext& tc) -> Result<PartitionPtr> {
        FLINT_ASSIGN_OR_RETURN(std::vector<PartitionPtr> lbuckets, ReadBuckets(l, j, tc));
        FLINT_ASSIGN_OR_RETURN(std::vector<PartitionPtr> rbuckets, ReadBuckets(r, j, tc));
        return reduce(lbuckets, rbuckets, tc);
      });
  out->set_key_partitions(num_reduce);
  return out;
}

// KeyPartitioned's sink: passes rows through unchanged and checks each one
// against the declaration. The first row that routes elsewhere or whose
// key is below its predecessor's sets status(); the chain run then fails.
template <typename K, typename V>
class KeyCheckSink final : public TypedSink<std::pair<K, V>> {
 public:
  KeyCheckSink(std::string rdd_name, int partition, int num_partitions,
               TypedSink<std::pair<K, V>>& down)
      : rdd_name_(std::move(rdd_name)), partition_(partition), num_partitions_(num_partitions),
        down_(down) {}

  void Push(const std::pair<K, V>* rec, size_t n) override {
    for (size_t i = 0; i < n && status_.ok(); ++i, ++row_) {
      const K& key = rec[i].first;
      const int home = KeyPartitionOf(key, num_partitions_);
      if (home != partition_) {
        Fail("row " + std::to_string(row_) + " belongs in partition " + std::to_string(home));
      } else if ((i > 0 && key < rec[i - 1].first) || (i == 0 && last_ && key < *last_)) {
        Fail("row " + std::to_string(row_) + " breaks key order");
      }
    }
    if (n > 0) {
      last_ = rec[n - 1].first;
    }
    down_.Push(rec, n);
  }
  void Flush() override { down_.Flush(); }
  Status status() const override { return status_; }

 private:
  void Fail(const std::string& what) {
    status_ = Internal("KeyPartitioned rdd '" + rdd_name_ + "' partition " +
                       std::to_string(partition_) + " of " + std::to_string(num_partitions_) +
                       ": " + what);
  }

  const std::string rdd_name_;
  const int partition_;
  const int num_partitions_;
  TypedSink<std::pair<K, V>>& down_;
  std::optional<K> last_;  // the previous batch's last key
  uint64_t row_ = 0;
  Status status_;
};

}  // namespace rdd_internal

// Declares that `pairs` is already key-partitioned into its own partition
// count: partition p holds only keys KeyPartitionOf routes to p, in
// non-decreasing key order. Keyed operators into that count then read it in
// place instead of shuffling it. The declaration is checked, not trusted:
// the operator streams every row through a check (fused into its
// consumer's chain like a Map), and a violation fails the task with an
// Internal status naming the RDD and the partition, so a wrong declaration
// cannot silently lose rows.
template <typename K, typename V>
PairRdd<K, V> KeyPartitioned(const PairRdd<K, V>& pairs, std::string name = "keyPartitioned") {
  const int n = pairs.num_partitions();
  RddPtr out = rdd_internal::MakeStreamingRdd<std::pair<K, V>>(
      pairs.ctx(), pairs.raw(), name, /*keeps_rows=*/true,
      [rdd_name = name, n](int partition, TypedSink<std::pair<K, V>>& down) {
        return std::make_unique<rdd_internal::KeyCheckSink<K, V>>(rdd_name, partition, n, down);
      });
  out->set_key_partitions(n);
  return PairRdd<K, V>(pairs.ctx(), std::move(out));
}

// Aggregates values per key with `combine` (associative; commutativity not
// required — values fold in (map partition, row) order on the map side and
// bucket-index order across buckets on the reduce side, deterministically).
// Map-side combining happens in the bucket sink, like Spark's aggregator.
// An input already key-partitioned into `num_reduce` is folded in place,
// with no shuffle and the same result. Output rows are sorted by key for
// deterministic results.
template <typename K, typename V, typename Combine>
PairRdd<K, V> ReduceByKey(const PairRdd<K, V>& parent, int num_reduce, Combine combine,
                          std::string name = "reduceByKey") {
  FlintContext* ctx = parent.ctx();
  Dependency dep = rdd_internal::KeyedInput(
      ctx, parent.raw(), num_reduce,
      rdd_internal::MakeCombineBucketFactory<K, V>(combine, &ctx->counters()));
  RddPtr out = ctx->CreateRdd(
      std::move(name), num_reduce, {dep},
      [dep, combine](int j, TaskContext& tc) -> Result<PartitionPtr> {
        FLINT_ASSIGN_OR_RETURN(std::vector<PartitionPtr> buckets,
                               rdd_internal::ReadBuckets(dep, j, tc));
        return MakePartition(rdd_internal::MergeCombineBuckets<K, V>(buckets, combine));
      });
  out->set_key_partitions(num_reduce);
  return PairRdd<K, V>(ctx, std::move(out));
}

// Groups values per key. Output rows sorted by key; value order follows map
// partition order (deterministic given deterministic inputs). An input
// already key-partitioned into `num_reduce` is grouped in place.
template <typename K, typename V>
PairRdd<K, std::vector<V>> GroupByKey(const PairRdd<K, V>& parent, int num_reduce,
                                      std::string name = "groupByKey") {
  FlintContext* ctx = parent.ctx();
  Dependency dep = rdd_internal::KeyedInput(ctx, parent.raw(), num_reduce,
                                            rdd_internal::MakePlainBucketFactory<K, V>());
  RddPtr out = ctx->CreateRdd(
      std::move(name), num_reduce, {dep}, [dep](int j, TaskContext& tc) -> Result<PartitionPtr> {
        FLINT_ASSIGN_OR_RETURN(std::vector<PartitionPtr> buckets,
                               rdd_internal::ReadBuckets(dep, j, tc));
        return MakePartition(rdd_internal::MergeGroupBuckets<K, V>(buckets));
      });
  out->set_key_partitions(num_reduce);
  return PairRdd<K, std::vector<V>>(ctx, std::move(out));
}

// Inner join by key into `num_reduce` partitions (each side already
// key-partitioned into `num_reduce` is read in place, see MakeBinaryByKey).
// The reduce side merge-joins the two sides' key runs in place
// (rdd_internal::KeyRunWalker), with no per-key regrouping. Output is
// key-sorted; per key, it is the cross product with right rows outer and
// left rows inner, each side in (map partition, row) order.
template <typename K, typename V, typename W>
PairRdd<K, std::pair<V, W>> Join(const PairRdd<K, V>& left, const PairRdd<K, W>& right,
                                 int num_reduce, std::string name = "join") {
  FlintContext* ctx = left.ctx();
  RddPtr out = rdd_internal::MakeBinaryByKey<K, V, W>(
      ctx, left.raw(), right.raw(), num_reduce, std::move(name),
      [](const std::vector<PartitionPtr>& lbuckets, const std::vector<PartitionPtr>& rbuckets,
         TaskContext&) -> PartitionPtr {
        // Calls matched(l, r) at each key both sides hold. Run twice: size
        // the output exactly, then emit.
        auto sweep = [&](auto&& matched) {
          rdd_internal::KeyRunWalker<K, V> l(lbuckets);
          rdd_internal::KeyRunWalker<K, W> r(rbuckets);
          for (bool lm = l.Next(), rm = r.Next(); lm && rm;) {
            if (l.key() < r.key()) {
              lm = l.Next();
            } else if (r.key() < l.key()) {
              rm = r.Next();
            } else {
              matched(l, r);
              lm = l.Next();
              rm = r.Next();
            }
          }
        };
        size_t total = 0;
        sweep([&](const auto& l, const auto& r) { total += l.count() * r.count(); });
        std::vector<std::pair<K, std::pair<V, W>>> rows;
        rows.reserve(total);
        sweep([&](const auto& l, const auto& r) {
          r.ForEach([&](const W& w) {
            l.ForEach([&](const V& v) {
              rows.emplace_back(std::piecewise_construct, std::forward_as_tuple(l.key()),
                                std::forward_as_tuple(v, w));
            });
          });
        });
        return MakePartition(std::move(rows));
      });
  return PairRdd<K, std::pair<V, W>>(ctx, std::move(out));
}

// Convenience: map only the values of a pair RDD.
// Keys stay where they are, so the parent's key partitioning carries over.
template <typename K, typename V, typename F>
auto MapValues(const PairRdd<K, V>& parent, F fn, std::string name = "mapValues") {
  auto out = parent.Map(
      [fn](const std::pair<K, V>& kv) { return std::make_pair(kv.first, fn(kv.second)); },
      std::move(name));
  out.raw()->set_key_partitions(parent.raw()->key_partitions());
  return out;
}

}  // namespace flint

#endif  // SRC_ENGINE_TYPED_RDD_H_
