// The lineage core: Rdd (an immutable, partitioned, lazily computed dataset),
// its dependencies (narrow one-to-one or shuffle), and the checkpoint state
// machine Flint's fault-tolerance manager drives.

#ifndef SRC_ENGINE_RDD_H_
#define SRC_ENGINE_RDD_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/engine/fusion.h"
#include "src/engine/partition.h"

namespace flint {

class FlintContext;
class TaskContext;
class Rdd;
using RddPtr = std::shared_ptr<Rdd>;

// Builds the map-side bucketing sink of a shuffle: a BucketTerminal whose
// sink splits one map partition's record stream into `num_buckets`
// reduce-side buckets. `expected_rows` is a pre-sizing hint (the map
// partition's row count when known, 0 otherwise).
using BucketTerminalFactory =
    std::function<BucketTerminal(int num_buckets, size_t expected_rows)>;

struct ShuffleInfo {
  int shuffle_id = -1;
  int num_map_partitions = 0;
  int num_reduce_partitions = 0;
  // The map side's terminal. Whether the map partition streams in from its
  // chain or is materialized first, the same rows reach a sink from this
  // factory in the same order, so the buckets are the same either way.
  BucketTerminalFactory make_bucket_sink;
  // The RDD whose partitions feed the map side.
  std::weak_ptr<Rdd> map_side;
};

enum class DepType { kNarrowOneToOne, kShuffle };

struct Dependency {
  DepType type = DepType::kNarrowOneToOne;
  RddPtr parent;
  std::shared_ptr<ShuffleInfo> shuffle;  // set iff type == kShuffle
  // Narrow only: child partition i reads parent partition i - partition_offset,
  // and none when that falls outside the parent (Union's right input starts
  // at the left input's partition count).
  int partition_offset = 0;
};

// Checkpoint lifecycle: kNone -> kMarked (FT manager decided to checkpoint)
// -> kSaved (every partition durably in the DFS with a committed manifest;
// lineage truncated here). A verified restore that finds the checkpoint
// missing or corrupt demotes back to kNone (ResetCheckpoint) and recovery
// falls back to lineage recomputation.
enum class CheckpointState { kNone = 0, kMarked = 1, kSaved = 2 };

class Rdd : public std::enable_shared_from_this<Rdd> {
 public:
  Rdd(FlintContext* ctx, std::string name, int num_partitions, std::vector<Dependency> deps);
  virtual ~Rdd();

  Rdd(const Rdd&) = delete;
  Rdd& operator=(const Rdd&) = delete;

  // Computes partition `index` from parents, fetching inputs through `tc`.
  // May fail with kDataLoss (missing shuffle input), kUnavailable (node
  // revoked mid-task), or any error from the source.
  virtual Result<PartitionPtr> Compute(int index, TaskContext& tc) const = 0;

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  int num_partitions() const { return num_partitions_; }
  const std::vector<Dependency>& deps() const { return deps_; }
  FlintContext* context() const { return ctx_; }

  // True if any dependency is a shuffle; such RDDs get the paper's boosted
  // checkpoint frequency (tau / #shuffled-from partitions).
  bool is_shuffle_output() const;

  // Caching hint (Spark's persist()): computed partitions are kept in the
  // block manager. Source and shuffle RDDs benefit most.
  bool should_cache() const { return cache_.load(std::memory_order_relaxed); }
  void set_cache(bool v) { cache_.store(v, std::memory_order_relaxed); }

  // Record-streaming surface (see fusion.h). Null for operators that do not
  // stream (sources, shuffle consumers, vector-level ops). Set once on
  // the driver thread immediately after construction, before the RDD can
  // reach an executor, so no synchronization is needed on the pointer.
  const FusionOps* fusion_ops() const { return fusion_ops_.get(); }
  void set_fusion_ops(std::shared_ptr<const FusionOps> ops) { fusion_ops_ = std::move(ops); }

  // Key partitioning of a pair RDD. N > 0 promises that the RDD has N
  // partitions, that every row sits in the partition KeyPartitionOf(key, N)
  // names (typed_rdd.h; the rule the map-side bucket sinks route by), and
  // that each partition is key-sorted. 0 means unknown. Set by ReduceByKey,
  // GroupByKey, Join, CoGroup and the checked KeyPartitioned declaration,
  // kept by MapValues and Filter, dropped (0) by everything else. A keyed
  // operator into N partitions reads such an input in place instead of
  // shuffling it. Set once on the driver right after construction, like the
  // fusion surface.
  int key_partitions() const { return key_partitions_; }
  void set_key_partitions(int n) { key_partitions_ = n; }

  // Number of live RDDs depending on this one (narrow or shuffle). A child
  // increments its parents' counts at construction and decrements them at
  // destruction. Fusion refuses to stream *through* an RDD with more than one
  // live consumer: eliding its output would recompute it once per consumer.
  int consumer_count() const { return consumers_.load(std::memory_order_acquire); }

  CheckpointState checkpoint_state() const { return state_.load(std::memory_order_acquire); }
  // kNone -> kMarked. Returns false if already marked/saved.
  bool MarkForCheckpoint();
  // kMarked -> kSaved. Must only be called once the manifest has landed in
  // the DFS: kSaved is the signal recovery trusts.
  void SetCheckpointSaved();
  // Any state -> kNone: the checkpoint proved unusable (torn, corrupt, or
  // GC'd mid-restore) or its writes were abandoned; the RDD may be re-marked
  // later by the fault-tolerance manager.
  void ResetCheckpoint();
  std::string CheckpointDir() const;
  std::string CheckpointPath(int partition) const;
  // Commit record written last; see src/dfs/manifest.h.
  std::string ManifestPath() const;

 private:
  FlintContext* ctx_;
  int id_;
  std::string name_;
  int num_partitions_;
  std::vector<Dependency> deps_;
  std::shared_ptr<const FusionOps> fusion_ops_;
  int key_partitions_ = 0;
  std::atomic<bool> cache_{false};
  std::atomic<CheckpointState> state_{CheckpointState::kNone};
  std::atomic<int> consumers_{0};
};

// Walks narrow dependencies transitively and returns the set of shuffle
// dependencies directly feeding `rdd`'s stage (classic Spark stage cut).
std::vector<std::shared_ptr<ShuffleInfo>> CollectDirectShuffleDeps(const RddPtr& rdd);

}  // namespace flint

#endif  // SRC_ENGINE_RDD_H_
