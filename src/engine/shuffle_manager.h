// Shuffle output storage plus the map-output tracker. Map tasks register the
// reduce-side buckets they produced on their node; reduce-side computations
// fetch all buckets for their partition. Buckets live on the producing node's
// (simulated) local storage and vanish when that node is revoked — the
// consuming task then fails with kDataLoss and the scheduler re-runs the
// missing map tasks, exactly like Spark's FetchFailed path.

#ifndef SRC_ENGINE_SHUFFLE_MANAGER_H_
#define SRC_ENGINE_SHUFFLE_MANAGER_H_

#include <atomic>
#include <unordered_map>
#include <vector>

#include "src/cluster/cluster_manager.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/engine/partition.h"
#include "src/obs/metrics.h"

namespace flint {

class ShuffleManager {
 public:
  ShuffleManager();

  // Declares a shuffle with M map partitions and R reduce partitions.
  void RegisterShuffle(int shuffle_id, int num_maps, int num_reduces);

  // Registers the buckets produced by map partition `map_part` on `node`.
  // `buckets` has one entry per reduce partition.
  void RegisterMapOutput(int shuffle_id, int map_part, NodeId node,
                         std::vector<PartitionPtr> buckets);

  // Map partitions whose output is currently missing (never produced, or
  // produced on a node that has since been revoked). Empty => complete.
  std::vector<int> MissingMaps(int shuffle_id) const;
  bool IsComplete(int shuffle_id) const;

  // Gathers bucket `reduce_part` from every map output. Fails with kDataLoss
  // if any map output is missing. A registered 0-map shuffle yields an empty
  // bucket list (complete by definition).
  Result<std::vector<PartitionPtr>> Fetch(int shuffle_id, int reduce_part) const;

  // One producer's contribution to a reduce partition: the bucket plus the
  // node whose link the transfer is charged against.
  struct FetchedBucket {
    NodeId node = -1;
    PartitionPtr bucket;
  };
  // Like Fetch, but keeps each bucket paired with its producing node so the
  // consumer can charge transfer time per link (TaskContext::FetchShuffle).
  Result<std::vector<FetchedBucket>> FetchDetailed(int shuffle_id, int reduce_part) const;

  // Drops every output of `shuffle_id` stored on `node`, as if the node's
  // local shuffle storage vanished. The fetch path uses this to force the
  // scheduler's recompute fallback when a producer's link is persistently
  // too slow to serve its buckets. Returns the number of outputs dropped.
  size_t DropNodeOutputs(int shuffle_id, NodeId node);

  // Number of registered shuffles currently tracked.
  size_t NumShuffles() const;

  // Drops every bucket stored on `node`.
  void OnNodeRevoked(NodeId node);

  // Total bytes of live shuffle output (for diagnostics and memory models).
  uint64_t TotalBytes() const;

  // Bytes of the `last_n` most recently registered shuffles — the "live"
  // shuffle state a systems-level snapshot must persist (older shuffles'
  // outputs are dead weight kept only for potential recovery).
  uint64_t RecentShuffleBytes(int last_n) const;

  // The flint_shuffle_* series this manager counts.
  const MetricSet& metrics() const { return metrics_; }

 private:
  struct MapOutput {
    NodeId node = -1;
    bool present = false;
    std::vector<PartitionPtr> buckets;
  };
  struct ShuffleState {
    // Explicit registration flag: outputs.empty() is NOT a usable sentinel
    // because a 0-map shuffle legitimately has no outputs.
    bool registered = false;
    int num_maps = 0;
    int num_reduces = 0;
    std::vector<MapOutput> outputs;  // indexed by map partition
  };

  mutable Mutex mutex_{"ShuffleManager::mutex_"};
  std::unordered_map<int, ShuffleState> shuffles_ GUARDED_BY(mutex_);
  // Declared after the state its gauges read.
  MetricSet metrics_;
  // Fetch calls that failed because outputs were missing (the consumer has
  // to wait for a re-run).
  std::atomic<uint64_t>& fetch_waits_ = metrics_.AddCounter("flint_shuffle_fetch_waits");
  // Map outputs registered (re-registrations after a revocation included)
  // and their cumulative bucket bytes.
  std::atomic<uint64_t>& map_outputs_registered_ =
      metrics_.AddCounter("flint_shuffle_map_outputs");
  std::atomic<uint64_t>& registered_bytes_ = metrics_.AddCounter("flint_shuffle_registered_bytes");
  // RegisterShuffle calls whose shape conflicted with the first registration.
  std::atomic<uint64_t>& reregistered_ = metrics_.AddCounter("flint_shuffle_reregistered");
};

}  // namespace flint

#endif  // SRC_ENGINE_SHUFFLE_MANAGER_H_
