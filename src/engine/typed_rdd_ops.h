// Additional typed transformations and actions layered over typed_rdd.h:
// Union, Distinct, Sample, SortBy, Zip-with-index, CoGroup, and the Take /
// First actions. Kept in a separate header so the core stays small; include
// this for the full Spark-like surface.

#ifndef SRC_ENGINE_TYPED_RDD_OPS_H_
#define SRC_ENGINE_TYPED_RDD_OPS_H_

#include <algorithm>
#include <optional>

#include "src/engine/typed_rdd.h"

namespace flint {

namespace rdd_internal {

// Range-partitioning bucket sink for SortBy: upper_bound over the quantile
// splitters routes each row, preserving arrival order within a bucket (the
// reduce side's stable_sort relies on that order for tie stability). Unlike
// the hash-bucket sinks, buckets are NOT key-sorted at the map side — the
// reduce side sorts whole rows once anyway.
template <typename T, typename KeyFn, typename K>
class RangeBucketSink final : public TypedSink<T> {
 public:
  RangeBucketSink(int num_buckets, size_t expected_rows, KeyFn key_fn,
                  std::shared_ptr<std::vector<K>> splitters)
      : key_fn_(std::move(key_fn)), splitters_(std::move(splitters)),
        buckets_(static_cast<size_t>(num_buckets)) {
    for (auto& b : buckets_) {
      b.reserve(expected_rows / buckets_.size() + 1);
    }
  }

  void Push(const T* rec, size_t n) override {
    rows_in_ += n;
    for (size_t i = 0; i < n; ++i) {
      size_t idx = static_cast<size_t>(std::upper_bound(splitters_->begin(), splitters_->end(),
                                                        key_fn_(rec[i])) -
                                       splitters_->begin());
      if (idx >= buckets_.size()) {
        idx = buckets_.size() - 1;
      }
      buckets_[idx].push_back(rec[i]);
    }
  }

  std::vector<PartitionPtr> Finish() {
    std::vector<PartitionPtr> out;
    out.reserve(buckets_.size());
    for (auto& b : buckets_) {
      out.push_back(MakePartition(std::move(b)));
    }
    return out;
  }

  uint64_t rows_in() const { return rows_in_; }

 private:
  KeyFn key_fn_;
  std::shared_ptr<std::vector<K>> splitters_;
  std::vector<std::vector<T>> buckets_;
  uint64_t rows_in_ = 0;
};

}  // namespace rdd_internal

// Concatenates two RDDs of the same type. Partitions are the union of both
// parents' partitions (narrow: partition i < ln of the result is left
// partition i, partition i >= ln is right partition i - ln).
template <typename T>
TypedRdd<T> Union(const TypedRdd<T>& left, const TypedRdd<T>& right,
                  std::string name = "union") {
  FlintContext* ctx = left.ctx();
  RddPtr lp = left.raw();
  RddPtr rp = right.raw();
  const int ln = lp->num_partitions();
  const int total = ln + rp->num_partitions();
  RddPtr out = ctx->CreateRdd(
      std::move(name), total,
      {Dependency{DepType::kNarrowOneToOne, lp, nullptr},
       Dependency{DepType::kNarrowOneToOne, rp, nullptr, /*partition_offset=*/ln}},
      [lp, rp, ln](int i, TaskContext& tc) -> Result<PartitionPtr> {
        if (i < ln) {
          return tc.GetPartition(lp, i);
        }
        return tc.GetPartition(rp, i - ln);
      });
  return TypedRdd<T>(ctx, std::move(out));
}

// Removes duplicates via a shuffle (hash-partition by value, dedupe on the
// reduce side). Requires std::hash-able, ordered T.
template <typename T>
TypedRdd<T> Distinct(const TypedRdd<T>& parent, int num_reduce, std::string name = "distinct") {
  auto keyed = parent.Map([](const T& t) { return std::make_pair(t, 0); }, name + "-key");
  auto reduced = ReduceByKey(keyed, num_reduce, [](int a, int) { return a; }, name);
  return reduced.Map([](const std::pair<T, int>& kv) { return kv.first; }, name + "-unkey");
}

// Bernoulli sample with the given fraction; deterministic in (seed, partition).
template <typename T>
TypedRdd<T> Sample(const TypedRdd<T>& parent, double fraction, uint64_t seed,
                   std::string name = "sample") {
  RddPtr out = rdd_internal::MakeStreamingRdd<T>(
      parent.ctx(), parent.raw(), std::move(name), /*keeps_rows=*/false,
      [fraction, seed](int partition, TypedSink<T>& down) {
        return std::make_unique<fusion_internal::SampleSink<T>>(fraction, seed, partition, down);
      });
  return TypedRdd<T>(parent.ctx(), std::move(out));
}

// Globally sorts by `key_fn` into `num_output` range partitions (0 = inherit
// the parent's partition count), Spark RangePartitioner-style:
//
//   1. An eager sample job takes up to 32 evenly spaced keys per parent
//      partition and the driver picks num_output-1 quantile splitters.
//   2. One shuffle range-partitions every row by upper_bound over the
//      splitters, so partition j holds keys in (s_{j-1}, s_j] and equal keys
//      never straddle a boundary.
//   3. Each reduce partition concatenates its buckets (map-partition order)
//      and stable_sorts by key.
//
// The result read in partition order is globally sorted, and — because the
// bucket concatenation order and stable_sort preserve the (map partition,
// row index) order of ties — bit-identical across num_output choices. Should
// the sample job fail (e.g. the cluster is mid-storm), the splitter set
// degrades to empty: everything lands in partition 0, which is the old
// single-reducer behaviour, still correct.
template <typename T, typename KeyFn>
TypedRdd<T> SortBy(const TypedRdd<T>& parent, KeyFn key_fn, int num_output = 0,
                   std::string name = "sortBy") {
  using K = std::decay_t<std::invoke_result_t<KeyFn, const T&>>;
  FlintContext* ctx = parent.ctx();
  if (num_output <= 0) {
    num_output = parent.num_partitions();
  }
  auto splitters = std::make_shared<std::vector<K>>();
  if (num_output > 1) {
    auto sample = parent.MapPartitions(
        [key_fn](const std::vector<T>& rows) {
          std::vector<K> keys;
          const size_t take = std::min<size_t>(rows.size(), 32);
          keys.reserve(take);
          for (size_t i = 0; i < take; ++i) {
            keys.push_back(key_fn(rows[i * rows.size() / take]));
          }
          return keys;
        },
        name + "-sample");
    auto sampled = sample.Collect();
    if (sampled.ok() && !sampled->empty()) {
      std::sort(sampled->begin(), sampled->end());
      splitters->reserve(static_cast<size_t>(num_output) - 1);
      for (int b = 1; b < num_output; ++b) {
        splitters->push_back(
            (*sampled)[static_cast<size_t>(b) * sampled->size() / static_cast<size_t>(num_output)]);
      }
    }
  }
  BucketTerminalFactory factory = [key_fn, splitters](int num_buckets, size_t expected_rows) {
    return rdd_internal::MakeBucketTerminal(
        std::make_unique<rdd_internal::RangeBucketSink<T, KeyFn, K>>(num_buckets, expected_rows,
                                                                      key_fn, splitters));
  };
  auto info = rdd_internal::MakeShuffle(ctx, parent.raw(), num_output, std::move(factory));
  RddPtr out = ctx->CreateRdd(
      std::move(name), num_output, {Dependency{DepType::kShuffle, parent.raw(), info}},
      [info, key_fn](int j, TaskContext& tc) -> Result<PartitionPtr> {
        FLINT_ASSIGN_OR_RETURN(std::vector<PartitionPtr> buckets,
                               tc.FetchShuffle(info->shuffle_id, j));
        size_t total = 0;
        for (const auto& b : buckets) {
          total += b->NumRecords();
        }
        std::vector<T> rows;
        rows.reserve(total);
        for (const auto& b : buckets) {
          const auto& br = Rows<T>(*b);
          rows.insert(rows.end(), br.begin(), br.end());
        }
        std::stable_sort(rows.begin(), rows.end(),
                         [key_fn](const T& a, const T& b) { return key_fn(a) < key_fn(b); });
        return MakePartition(std::move(rows));
      });
  return TypedRdd<T>(ctx, std::move(out));
}

// CoGroup: for each key, the values from both sides. The building block for
// outer joins. Shuffle-free when both sides are already co-partitioned (see
// MakeBinaryByKey in typed_rdd.h).
template <typename K, typename V, typename W>
PairRdd<K, std::pair<std::vector<V>, std::vector<W>>> CoGroup(const PairRdd<K, V>& left,
                                                              const PairRdd<K, W>& right,
                                                              int num_reduce,
                                                              std::string name = "cogroup") {
  FlintContext* ctx = left.ctx();
  using Out = std::pair<K, std::pair<std::vector<V>, std::vector<W>>>;
  RddPtr out = rdd_internal::MakeBinaryByKey<K, V, W>(
      ctx, left.raw(), right.raw(), num_reduce, std::move(name),
      [](const std::vector<PartitionPtr>& lbuckets, const std::vector<PartitionPtr>& rbuckets,
         TaskContext&) -> PartitionPtr {
        // Merge each side's key-sorted buckets into grouped runs, then
        // stitch the two sorted group lists together with one sweep.
        std::vector<std::pair<K, std::vector<V>>> lg =
            rdd_internal::MergeGroupBuckets<K, V>(lbuckets);
        std::vector<std::pair<K, std::vector<W>>> rg =
            rdd_internal::MergeGroupBuckets<K, W>(rbuckets);
        std::vector<Out> rows;
        rows.reserve(lg.size() + rg.size());
        size_t li = 0;
        size_t ri = 0;
        while (li < lg.size() || ri < rg.size()) {
          if (ri >= rg.size() || (li < lg.size() && lg[li].first < rg[ri].first)) {
            rows.emplace_back(lg[li].first,
                              std::make_pair(std::move(lg[li].second), std::vector<W>{}));
            ++li;
          } else if (li >= lg.size() || rg[ri].first < lg[li].first) {
            rows.emplace_back(rg[ri].first,
                              std::make_pair(std::vector<V>{}, std::move(rg[ri].second)));
            ++ri;
          } else {
            rows.emplace_back(lg[li].first, std::make_pair(std::move(lg[li].second),
                                                           std::move(rg[ri].second)));
            ++li;
            ++ri;
          }
        }
        return MakePartition(std::move(rows));
      });
  return PairRdd<K, std::pair<std::vector<V>, std::vector<W>>>(ctx, std::move(out));
}

// Left outer join built on CoGroup: right side values become optional.
template <typename K, typename V, typename W>
PairRdd<K, std::pair<V, std::optional<W>>> LeftOuterJoin(const PairRdd<K, V>& left,
                                                         const PairRdd<K, W>& right,
                                                         int num_reduce,
                                                         std::string name = "leftOuterJoin") {
  auto cg = CoGroup(left, right, num_reduce, name + "-cogroup");
  using In = std::pair<K, std::pair<std::vector<V>, std::vector<W>>>;
  using Out = std::pair<K, std::pair<V, std::optional<W>>>;
  return cg.FlatMap(
      [](const In& row) {
        std::vector<Out> out;
        for (const V& v : row.second.first) {
          if (row.second.second.empty()) {
            out.emplace_back(row.first, std::make_pair(v, std::optional<W>()));
          } else {
            for (const W& w : row.second.second) {
              out.emplace_back(row.first, std::make_pair(v, std::optional<W>(w)));
            }
          }
        }
        return out;
      },
      name);
}

// Take: the first n records in partition order. Materializes partitions
// incrementally — the first batch is one partition, each miss grows the
// next batch 4x (Spark's scale-up heuristic) — and stops as soon as n
// records are gathered, so Take(small) on a wide RDD never computes the
// tail partitions.
template <typename T>
Result<std::vector<T>> Take(const TypedRdd<T>& rdd, size_t n) {
  std::vector<T> out;
  if (n == 0) {
    return out;
  }
  const int total = rdd.num_partitions();
  int next = 0;
  int batch = 1;
  while (next < total && out.size() < n) {
    std::vector<int> want;
    want.reserve(static_cast<size_t>(batch));
    for (int p = next; p < total && static_cast<int>(want.size()) < batch; ++p) {
      want.push_back(p);
    }
    next += static_cast<int>(want.size());
    batch *= 4;
    FLINT_ASSIGN_OR_RETURN(std::vector<PartitionPtr> parts,
                           rdd.ctx()->MaterializePartitions(rdd.raw(), want));
    for (const auto& part : parts) {
      const auto& rows = Rows<T>(*part);
      for (const T& r : rows) {
        out.push_back(r);
        if (out.size() == n) {
          return out;
        }
      }
    }
  }
  return out;
}

template <typename T>
Result<T> First(const TypedRdd<T>& rdd) {
  FLINT_ASSIGN_OR_RETURN(std::vector<T> one, Take(rdd, 1));
  if (one.empty()) {
    return FailedPrecondition("First on empty RDD");
  }
  return one.front();
}

// Keys / Values projections.
template <typename K, typename V>
TypedRdd<K> Keys(const PairRdd<K, V>& rdd, std::string name = "keys") {
  return rdd.Map([](const std::pair<K, V>& kv) { return kv.first; }, std::move(name));
}

template <typename K, typename V>
TypedRdd<V> Values(const PairRdd<K, V>& rdd, std::string name = "values") {
  return rdd.Map([](const std::pair<K, V>& kv) { return kv.second; }, std::move(name));
}

}  // namespace flint

#endif  // SRC_ENGINE_TYPED_RDD_OPS_H_
