// Record streaming: the one execution surface of the streaming operators.
//
// Map, Filter, FlatMap, Sample and the Reduce partial fold are each defined
// once, by a sink: a TypedSink that consumes the operator's input rows and
// pushes its output rows into the sink below it. Everything else about the
// operator is derived from that sink (rdd_internal::MakeStreamingRdd in
// typed_rdd.h). Computing a partition is one run of TaskContext::RunChain:
// the chain of streaming operators down to the first RDD that must be built
// (a source, shuffle consumer, cached/marked RDD, or one with another live
// consumer) is stacked as sinks, that barrier's partition is materialized
// through the regular path, and its rows are driven through the stack into a
// terminal. The terminal collects the head's output partition, or, at a
// shuffle's map side, splits the rows into the reduce-side buckets. The
// intermediate partitions are never built (see DESIGN.md "Execution hot
// path").
//
// Execution is batched, not tuple-at-a-time: records flow through
// TypedSink<T>::Push(const T*, size_t) in spans of kFusionBatchRows, so the
// virtual dispatch is paid once per batch while the per-record loops inline
// (the operator's functor is a template parameter of its sink) and the
// intermediate batch buffers stay cache-resident; a record-at-a-time Push
// measured slower than building every level's partition. Each sink reuses
// one batch buffer for the whole partition: O(batch) per operator instead of
// O(rows).
//
// The engine core is type-erased, so the chain is too: each streaming
// operator attaches a FusionOps to its Rdd whose type knowledge lives inside
// the closure built by the typed API. A chain is torn down with exactly one
// Flush sweep so buffering operators (per-partition folds) can emit their
// pending output. An operator that checks its rows (KeyPartitioned) reports a
// violation through status(); the chain run fails with it.

#ifndef SRC_ENGINE_FUSION_H_
#define SRC_ENGINE_FUSION_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/engine/partition.h"

namespace flint {

// Rows per Push batch. Large enough to amortize the per-batch virtual call
// to nothing, small enough that a stage's buffer (2048 * sizeof(record))
// stays in L1/L2 for typical record types.
inline constexpr size_t kFusionBatchRows = 2048;

// Type-erased record consumer. Concrete sinks are TypedSink<T>s; FusionSink
// exists so chains of differing record types compose behind one pointer.
class FusionSink {
 public:
  virtual ~FusionSink() = default;

  // End-of-stream. Operators that buffer (FoldSink) push their pending
  // output downstream here, then forward the Flush; pass-through operators
  // just forward it. Exactly one Flush traverses a chain, issued by
  // DriveRows after the last input batch.
  virtual void Flush() {}

  // Streams every row of `input`, a materialized partition of this sink's
  // input type, through the sink in kFusionBatchRows spans, then Flushes.
  virtual void DriveRows(const PartitionData& input) = 0;

  // Read after the Flush sweep: a non-OK status fails the chain run (and so
  // the task). Only checking operators override it.
  virtual Status status() const { return Status::Ok(); }
};

template <typename T>
class TypedSink : public FusionSink {
 public:
  // Consumes a batch of records. The span is only valid for the duration of
  // the call (it typically aliases the upstream sink's reused buffer).
  virtual void Push(const T* rec, size_t n) = 0;

  void DriveRows(const PartitionData& input) final {
    const std::vector<T>& rows = Rows<T>(input);
    for (size_t off = 0; off < rows.size(); off += kFusionBatchRows) {
      Push(rows.data() + off, std::min(kFusionBatchRows, rows.size() - off));
    }
    Flush();
  }
};

// Debug-checked downcast, mirroring Rows<T>: the typed API guarantees the
// sink types line up, a mismatch is a programming error.
template <typename T>
TypedSink<T>& SinkAs(FusionSink& sink) {
  assert(dynamic_cast<TypedSink<T>*>(&sink) != nullptr && "fusion sink type mismatch");
  return static_cast<TypedSink<T>&>(sink);
}

// Collects a chain's output rows; Finish() moves them into the task's result
// partition. Reserve() pre-sizes the vector when the row count is known (a
// chain of Maps emits exactly its input's rows), so the output is built in
// one allocation.
template <typename T>
class CollectTerminal final : public TypedSink<T> {
 public:
  void Reserve(size_t n) { rows_.reserve(n); }
  void Push(const T* rec, size_t n) override { rows_.insert(rows_.end(), rec, rec + n); }
  PartitionPtr Finish() { return MakePartition(std::move(rows_)); }

 private:
  std::vector<T> rows_;
};

// Terminal of a chain that feeds a shuffle: the sink consumes the map-side
// record stream and finish() emits the reduce-side buckets. Built by a
// ShuffleInfo's bucket-sink factory (typed_rdd.h); consumed by
// TaskContext::ComputeShuffleBuckets.
struct BucketTerminal {
  std::unique_ptr<FusionSink> sink;
  std::function<std::vector<PartitionPtr>()> finish;
  // Rows the sink consumed; read after the single Flush sweep (feeds the
  // flint_shuffle_rows_bucketed_* counters).
  std::function<uint64_t()> rows_in;
};

// The per-operator streaming surface, attached to an Rdd via
// set_fusion_ops(). Built only by rdd_internal::MakeStreamingRdd.
struct FusionOps {
  // Wraps `sink` (which consumes this operator's outputs) into the
  // operator's own sink, consuming its inputs. The partition index is passed
  // for operators whose behaviour depends on it (Sample's RNG seed).
  std::function<std::unique_ptr<FusionSink>(int index, FusionSink& sink)> adapt;
  // True when the operator emits exactly one row per input row (Map), so a
  // chain of such operators may size its output from its input.
  bool keeps_rows = false;
};

namespace fusion_internal {

template <typename In, typename Out, typename F>
class MapSink final : public TypedSink<In> {
 public:
  MapSink(F fn, TypedSink<Out>& down) : fn_(std::move(fn)), down_(down) {}
  void Push(const In* rec, size_t n) override {
    // resize + indexed writes keeps the loop vectorizable; fall back to
    // push_back for output types without a default constructor.
    if constexpr (std::is_default_constructible_v<Out>) {
      buffer_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        buffer_[i] = fn_(rec[i]);
      }
    } else {
      buffer_.clear();
      buffer_.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        buffer_.push_back(fn_(rec[i]));
      }
    }
    down_.Push(buffer_.data(), buffer_.size());
  }
  void Flush() override { down_.Flush(); }

 private:
  F fn_;
  std::vector<Out> buffer_;
  TypedSink<Out>& down_;
};

template <typename T, typename F>
class FilterSink final : public TypedSink<T> {
 public:
  FilterSink(F pred, TypedSink<T>& down) : pred_(std::move(pred)), down_(down) {}
  void Push(const T* rec, size_t n) override {
    buffer_.clear();
    buffer_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (pred_(rec[i])) {
        buffer_.push_back(rec[i]);
      }
    }
    down_.Push(buffer_.data(), buffer_.size());
  }
  void Flush() override { down_.Flush(); }

 private:
  F pred_;
  std::vector<T> buffer_;
  TypedSink<T>& down_;
};

// F: const In& -> std::vector<Out>. Output batches can exceed
// kFusionBatchRows (one downstream Push per input batch, however much it
// exploded); that only grows this stage's buffer, not any partition.
template <typename In, typename Out, typename F>
class FlatMapSink final : public TypedSink<In> {
 public:
  FlatMapSink(F fn, TypedSink<Out>& down) : fn_(std::move(fn)), down_(down) {}
  void Push(const In* rec, size_t n) override {
    buffer_.clear();
    for (size_t i = 0; i < n; ++i) {
      for (Out& out : fn_(rec[i])) {
        buffer_.push_back(std::move(out));
      }
    }
    down_.Push(buffer_.data(), buffer_.size());
  }
  void Flush() override { down_.Flush(); }

 private:
  F fn_;
  std::vector<Out> buffer_;
  TypedSink<Out>& down_;
};

// Bernoulli sampling; the RNG is seeded from (seed, partition) and consumed
// in record order, so a partition's sample does not depend on the chain it
// runs in.
template <typename T>
class SampleSink final : public TypedSink<T> {
 public:
  SampleSink(double fraction, uint64_t seed, int index, TypedSink<T>& down)
      : fraction_(fraction), rng_(seed * 2654435761ULL + static_cast<uint64_t>(index)),
        down_(down) {}
  void Push(const T* rec, size_t n) override {
    buffer_.clear();
    for (size_t i = 0; i < n; ++i) {
      if (rng_.Bernoulli(fraction_)) {
        buffer_.push_back(rec[i]);
      }
    }
    down_.Push(buffer_.data(), buffer_.size());
  }
  void Flush() override { down_.Flush(); }

 private:
  double fraction_;
  Rng rng_;
  std::vector<T> buffer_;
  TypedSink<T>& down_;
};

// Per-partition fold (the pushed-down Reduce): buffers the running
// accumulator and emits it (at most one record) on Flush. The fold is a
// strict left fold in record order, so non-commutative (but associative)
// functions see the partition's rows in order.
template <typename T, typename F>
class FoldSink final : public TypedSink<T> {
 public:
  FoldSink(F fn, TypedSink<T>& down) : fn_(std::move(fn)), down_(down) {}
  void Push(const T* rec, size_t n) override {
    if (n == 0) {
      return;
    }
    size_t i = 0;
    if (!acc_.has_value()) {
      acc_.emplace(rec[0]);
      i = 1;
    }
    // Fold in a local: a member accumulator may alias `rec`, which would
    // force a store and reload per row and block vectorization.
    T acc = std::move(*acc_);
    for (; i < n; ++i) {
      acc = fn_(acc, rec[i]);
    }
    *acc_ = std::move(acc);
  }
  void Flush() override {
    if (acc_.has_value()) {
      down_.Push(&*acc_, 1);
    }
    down_.Flush();
  }

 private:
  F fn_;
  std::optional<T> acc_;
  TypedSink<T>& down_;
};

}  // namespace fusion_internal
}  // namespace flint

#endif  // SRC_ENGINE_FUSION_H_
