#include "src/engine/block_manager.h"

#include <algorithm>

namespace flint {

BlockManager::BlockManager(BlockManagerConfig config, LatencyModel* latency)
    : config_(config), latency_(latency) {
  const size_t n = static_cast<size_t>(std::max(1, config_.num_shards));
  shard_budget_bytes_ = config_.memory_budget_bytes / n;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  metrics_.AddGauge("flint_block_memory_used_bytes",
                    [this] { return static_cast<double>(memory_used()); });
  metrics_.AddGauge("flint_block_spill_used_bytes",
                    [this] { return static_cast<double>(spill_used()); });
}

std::vector<BlockEviction> BlockManager::Put(const BlockKey& key, PartitionPtr data,
                                             bool* stored, bool evict) {
  std::vector<BlockEviction> evictions;
  const uint64_t size = data->SizeBytes();
  uint64_t spill_bytes = 0;
  Shard& shard = ShardFor(key);
  {
    MutexLock lock(&shard.mutex);
    if (size > shard_budget_bytes_) {
      if (stored != nullptr) {
        *stored = false;
      }
      return evictions;
    }
    auto it = shard.memory.find(key);
    if (it != shard.memory.end()) {
      // Refresh existing entry.
      shard.lru.erase(it->second.lru_it);
      shard.lru.push_front(key);
      it->second.lru_it = shard.lru.begin();
      DropStaleSpillLocked(shard, key, data);
      it->second.data = std::move(data);
      if (stored != nullptr) {
        *stored = true;
      }
      return evictions;
    }
    if (!evict && shard.memory_used + size > shard_budget_bytes_) {
      if (stored != nullptr) {
        *stored = false;
      }
      return evictions;
    }
    spill_bytes = EvictShardLocked(shard, size, &evictions);
    DropStaleSpillLocked(shard, key, data);
    shard.lru.push_front(key);
    Entry entry;
    entry.data = std::move(data);
    entry.size = size;
    entry.lru_it = shard.lru.begin();
    shard.memory.emplace(key, std::move(entry));
    shard.memory_used += size;
    if (stored != nullptr) {
      *stored = true;
    }
  }
  // Spill writes are charged outside the lock.
  if (spill_bytes > 0 && latency_ != nullptr) {
    latency_->Transfer(Layer::kSpill, spill_bytes, config_.disk_bandwidth_bytes_per_s);
  }
  return evictions;
}

void BlockManager::DropStaleSpillLocked(Shard& shard, const BlockKey& key,
                                        const PartitionPtr& data) {
  auto sit = shard.spill.find(key);
  if (sit != shard.spill.end() && sit->second != data) {
    shard.spill_used -= sit->second->SizeBytes();
    shard.spill.erase(sit);
  }
}

uint64_t BlockManager::EvictShardLocked(Shard& shard, uint64_t needed,
                                        std::vector<BlockEviction>* evictions) {
  uint64_t written = 0;
  while (shard.memory_used + needed > shard_budget_bytes_ && !shard.lru.empty()) {
    const BlockKey victim = shard.lru.back();
    shard.lru.pop_back();
    auto it = shard.memory.find(victim);
    if (it == shard.memory.end()) {
      continue;
    }
    shard.memory_used -= it->second.size;
    BlockEviction ev;
    ev.key = victim;
    if (config_.eviction == EvictionMode::kSpill) {
      ev.spilled = true;
      // A disk copy left by a promotion holds these same bytes: keep it.
      if (shard.spill.try_emplace(victim, std::move(it->second.data)).second) {
        shard.spill_used += it->second.size;
        written += it->second.size;
        spills_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    shard.memory.erase(it);
    evictions->push_back(ev);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return written;
}

PartitionPtr BlockManager::Get(const BlockKey& key) {
  PartitionPtr from_spill;
  Shard& shard = ShardFor(key);
  {
    MutexLock lock(&shard.mutex);
    auto it = shard.memory.find(key);
    if (it != shard.memory.end()) {
      shard.lru.erase(it->second.lru_it);
      shard.lru.push_front(key);
      it->second.lru_it = shard.lru.begin();
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.data;
    }
    auto sit = shard.spill.find(key);
    if (sit == shard.spill.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    from_spill = sit->second;
    spill_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  // Pay the disk read; then promote back into memory (may evict others).
  // The disk copy stays: it holds the same bytes, so evicting the promoted
  // block again writes nothing.
  if (latency_ != nullptr) {
    latency_->Transfer(Layer::kSpill, from_spill->SizeBytes(), config_.disk_bandwidth_bytes_per_s);
  }
  Put(key, from_spill, nullptr);
  return from_spill;
}

uint64_t BlockManager::BlockBytes(const BlockKey& key) const {
  Shard& shard = ShardFor(key);
  ReaderMutexLock lock(&shard.mutex);
  if (auto it = shard.memory.find(key); it != shard.memory.end()) {
    return it->second.size;
  }
  auto sit = shard.spill.find(key);
  return sit == shard.spill.end() ? 0 : sit->second->SizeBytes();
}

bool BlockManager::Contains(const BlockKey& key) const {
  Shard& shard = ShardFor(key);
  ReaderMutexLock lock(&shard.mutex);
  return shard.memory.count(key) > 0 || shard.spill.count(key) > 0;
}

void BlockManager::Erase(const BlockKey& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mutex);
  auto it = shard.memory.find(key);
  if (it != shard.memory.end()) {
    shard.memory_used -= it->second.size;
    shard.lru.erase(it->second.lru_it);
    shard.memory.erase(it);
  }
  auto sit = shard.spill.find(key);
  if (sit != shard.spill.end()) {
    shard.spill_used -= sit->second->SizeBytes();
    shard.spill.erase(sit);
  }
}

void BlockManager::Clear() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mutex);
    shard->memory.clear();
    shard->spill.clear();
    shard->lru.clear();
    shard->memory_used = 0;
    shard->spill_used = 0;
  }
}

uint64_t BlockManager::memory_used() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(&shard->mutex);
    total += shard->memory_used;
  }
  return total;
}

uint64_t BlockManager::spill_used() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(&shard->mutex);
    total += shard->spill_used;
  }
  return total;
}

size_t BlockManager::num_memory_blocks() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(&shard->mutex);
    total += shard->memory.size();
  }
  return total;
}

size_t BlockManager::num_rdd_blocks(int rdd_id) const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(&shard->mutex);
    for (const auto& [key, entry] : shard->memory) {
      total += key.rdd_id == rdd_id ? 1 : 0;
    }
    for (const auto& [key, data] : shard->spill) {
      total += key.rdd_id == rdd_id && !shard->memory.contains(key) ? 1 : 0;
    }
  }
  return total;
}

size_t BlockManager::num_spill_blocks() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(&shard->mutex);
    total += shard->spill.size();
  }
  return total;
}

}  // namespace flint
