// Per-node RDD cache, mirroring Spark's block manager: bounded memory budget,
// LRU eviction, optional spill to node-local disk (lost on revocation, like
// EC2 instance storage). A block is written to disk once, as Spark's
// dropFromMemory does: reading a spilled block promotes it back to memory
// and keeps its disk copy, so evicting it again writes nothing; a Put that
// stores different data for the key drops the stale disk copy. One
// BlockManager exists per live node; the
// cluster-wide index of which node caches which partition lives in
// FlintContext's BlockRegistry.
//
// The cache is striped into `num_shards` independently locked shards (each
// with budget/num_shards of the memory budget and its own LRU list) so
// concurrent executor threads touching different blocks do not serialize on
// one mutex; GetMutexStats() on "BlockManager::shard_mutex_" shows the
// contention. num_shards = 1 restores the single-lock, single-LRU behaviour.

#ifndef SRC_ENGINE_BLOCK_MANAGER_H_
#define SRC_ENGINE_BLOCK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/latency.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"
#include "src/engine/partition.h"
#include "src/obs/metrics.h"

namespace flint {

struct BlockKey {
  int rdd_id = -1;
  int partition = -1;
  bool operator==(const BlockKey& o) const {
    return rdd_id == o.rdd_id && partition == o.partition;
  }
};

struct BlockKeyHash {
  size_t operator()(const BlockKey& k) const {
    // splitmix64 finalizer over both ints. rdd_id and partition are small
    // sequential values; a multiplicative combine clusters them badly across
    // both hash-table buckets and cache shards, so mix all 64 bits.
    uint64_t x = (static_cast<uint64_t>(static_cast<uint32_t>(k.rdd_id)) << 32) |
                 static_cast<uint64_t>(static_cast<uint32_t>(k.partition));
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

// What to do when the memory budget is exceeded (Spark storage levels).
enum class EvictionMode {
  kDrop,   // MEMORY_ONLY: evicted partitions are recomputed on next access
  kSpill,  // MEMORY_AND_DISK: evicted partitions move to node-local disk
};

struct BlockManagerConfig {
  uint64_t memory_budget_bytes = 256 * kMiB;
  EvictionMode eviction = EvictionMode::kDrop;
  // Node-local disk bandwidth for spill reads/writes (models SSD instance
  // storage), charged to the latency model's kSpill layer.
  double disk_bandwidth_bytes_per_s = 400.0 * kMiB;
  // Lock striping (clamped to >= 1). Each shard owns budget/num_shards bytes
  // and evicts independently, so the aggregate memory_used() never exceeds
  // the total budget but a single shard may evict while others have room.
  int num_shards = 8;
};

struct BlockEviction {
  BlockKey key;
  bool spilled = false;  // false: dropped entirely
};

class BlockManager {
 public:
  // Spill writes and reads are charged to `latency` (kSpill); nullptr, for
  // standalone use, charges nothing.
  explicit BlockManager(BlockManagerConfig config, LatencyModel* latency = nullptr);

  // Inserts a block, evicting LRU blocks of its shard if needed. Returns the
  // evictions performed so the caller can update the cluster-wide registry.
  // Blocks larger than the shard budget are not cached at all (the caller
  // sees a consistent "not stored" signal via *stored = false); with
  // `evict` false, neither is a block that does not fit the shard's free
  // memory.
  std::vector<BlockEviction> Put(const BlockKey& key, PartitionPtr data, bool* stored,
                                 bool evict = true);

  // Fetches a block from memory, or from local spill (paying the modelled
  // disk read and promoting it back to memory). nullptr if absent.
  PartitionPtr Get(const BlockKey& key);

  // The block's size in memory or spill; 0 when it is held in neither.
  uint64_t BlockBytes(const BlockKey& key) const;
  bool Contains(const BlockKey& key) const;
  void Erase(const BlockKey& key);
  void Clear();

  // Aggregates across shards; each is a consistent per-shard snapshot.
  uint64_t memory_used() const;
  uint64_t spill_used() const;
  size_t num_memory_blocks() const;
  // Disk copies, including those of blocks promoted back to memory.
  size_t num_spill_blocks() const;
  // Blocks of one RDD held here, in memory or spill, each counted once.
  size_t num_rdd_blocks(int rdd_id) const;
  size_t num_shards() const { return shards_.size(); }

  // This node's flint_block_* series (the registry sums them over nodes).
  const MetricSet& metrics() const { return metrics_; }

 private:
  struct Entry {
    PartitionPtr data;
    uint64_t size = 0;
    std::list<BlockKey>::iterator lru_it;
  };

  struct Shard {
    mutable Mutex mutex{"BlockManager::shard_mutex_"};
    std::unordered_map<BlockKey, Entry, BlockKeyHash> memory GUARDED_BY(mutex);
    // Disk copies. A key in both maps holds the same PartitionPtr in each.
    std::unordered_map<BlockKey, PartitionPtr, BlockKeyHash> spill GUARDED_BY(mutex);
    std::list<BlockKey> lru GUARDED_BY(mutex);  // front = most recent
    uint64_t memory_used GUARDED_BY(mutex) = 0;
    uint64_t spill_used GUARDED_BY(mutex) = 0;
  };

  Shard& ShardFor(const BlockKey& key) const {
    return *shards_[BlockKeyHash()(key) % shards_.size()];
  }

  // Evicts from `shard` until `needed` bytes fit its budget. Returns the
  // bytes written to disk: a victim whose disk copy is still there writes
  // none.
  uint64_t EvictShardLocked(Shard& shard, uint64_t needed, std::vector<BlockEviction>* evictions)
      REQUIRES(shard.mutex);
  // Erases the disk copy of `key` unless it holds `data` itself.
  void DropStaleSpillLocked(Shard& shard, const BlockKey& key, const PartitionPtr& data)
      REQUIRES(shard.mutex);

  BlockManagerConfig config_;
  LatencyModel* const latency_;
  uint64_t shard_budget_bytes_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Declared after the shards its memory gauges read.
  MetricSet metrics_;
  // Lifetime cache traffic.
  std::atomic<uint64_t>& hits_ = metrics_.AddCounter("flint_block_hits");  // served from memory
  std::atomic<uint64_t>& spill_hits_ = metrics_.AddCounter("flint_block_spill_hits");  // from spill
  std::atomic<uint64_t>& misses_ = metrics_.AddCounter("flint_block_misses");  // found nothing
  // Blocks pushed out of memory (dropped or spilled), and the disk writes
  // among them (an eviction that finds its disk copy in place writes none).
  std::atomic<uint64_t>& evictions_ = metrics_.AddCounter("flint_block_evictions");
  std::atomic<uint64_t>& spills_ = metrics_.AddCounter("flint_block_spills");
};

}  // namespace flint

#endif  // SRC_ENGINE_BLOCK_MANAGER_H_
