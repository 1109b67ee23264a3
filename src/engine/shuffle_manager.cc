#include "src/engine/shuffle_manager.h"

#include <string>

#include "src/common/log.h"

namespace flint {

ShuffleManager::ShuffleManager() {
  metrics_.AddGauge("flint_shuffle_live_shuffles",
                    [this] { return static_cast<double>(NumShuffles()); });
  metrics_.AddGauge("flint_shuffle_total_bytes",
                    [this] { return static_cast<double>(TotalBytes()); });
}

void ShuffleManager::RegisterShuffle(int shuffle_id, int num_maps, int num_reduces) {
  // Registration is tracked with an explicit flag, not outputs.empty():
  // a zero-map shuffle has no outputs forever, and using emptiness as the
  // sentinel let every repeat call re-initialize it — a concurrent or repeat
  // registration could silently overwrite num_reduces.
  bool conflicting = false;
  {
    MutexLock lock(&mutex_);
    auto& state = shuffles_[shuffle_id];
    if (!state.registered) {
      state.registered = true;
      state.num_maps = num_maps;
      state.num_reduces = num_reduces;
      state.outputs.resize(static_cast<size_t>(num_maps));
    } else if (state.num_maps != num_maps || state.num_reduces != num_reduces) {
      // First registration wins: resizing under a different shape would
      // orphan outputs that map tasks already registered.
      conflicting = true;
    }
  }
  if (conflicting) {
    reregistered_.fetch_add(1, std::memory_order_relaxed);
    FLINT_WLOG() << "shuffle " << shuffle_id
                 << " re-registered with a different shape; keeping first "
                    "registration (maps=" << num_maps << " reduces=" << num_reduces
                 << " ignored)";
  }
}

void ShuffleManager::RegisterMapOutput(int shuffle_id, int map_part, NodeId node,
                                       std::vector<PartitionPtr> buckets) {
  MutexLock lock(&mutex_);
  auto it = shuffles_.find(shuffle_id);
  if (it == shuffles_.end() || map_part < 0 ||
      static_cast<size_t>(map_part) >= it->second.outputs.size()) {
    return;
  }
  MapOutput& out = it->second.outputs[static_cast<size_t>(map_part)];
  out.node = node;
  out.present = true;
  out.buckets = std::move(buckets);
  map_outputs_registered_.fetch_add(1, std::memory_order_relaxed);
  uint64_t bytes = 0;
  for (const auto& b : out.buckets) {
    if (b != nullptr) {
      bytes += b->SizeBytes();
    }
  }
  registered_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

std::vector<int> ShuffleManager::MissingMaps(int shuffle_id) const {
  ReaderMutexLock lock(&mutex_);
  std::vector<int> missing;
  auto it = shuffles_.find(shuffle_id);
  if (it == shuffles_.end()) {
    return missing;
  }
  for (int m = 0; m < it->second.num_maps; ++m) {
    if (!it->second.outputs[static_cast<size_t>(m)].present) {
      missing.push_back(m);
    }
  }
  return missing;
}

bool ShuffleManager::IsComplete(int shuffle_id) const {
  ReaderMutexLock lock(&mutex_);
  auto it = shuffles_.find(shuffle_id);
  if (it == shuffles_.end()) {
    return false;
  }
  for (const auto& out : it->second.outputs) {
    if (!out.present) {
      return false;
    }
  }
  return true;
}

Result<std::vector<PartitionPtr>> ShuffleManager::Fetch(int shuffle_id, int reduce_part) const {
  auto detailed = FetchDetailed(shuffle_id, reduce_part);
  if (!detailed.ok()) {
    return detailed.status();
  }
  std::vector<PartitionPtr> buckets;
  buckets.reserve(detailed->size());
  for (auto& fb : *detailed) {
    buckets.push_back(std::move(fb.bucket));
  }
  return buckets;
}

Result<std::vector<ShuffleManager::FetchedBucket>> ShuffleManager::FetchDetailed(
    int shuffle_id, int reduce_part) const {
  ReaderMutexLock lock(&mutex_);
  auto it = shuffles_.find(shuffle_id);
  if (it == shuffles_.end()) {
    fetch_waits_.fetch_add(1, std::memory_order_relaxed);
    return DataLoss("unknown shuffle " + std::to_string(shuffle_id));
  }
  // A registered 0-map shuffle is complete by definition; Fetch returns an
  // empty bucket list rather than an error.
  std::vector<FetchedBucket> buckets;
  buckets.reserve(it->second.outputs.size());
  for (const auto& out : it->second.outputs) {
    if (!out.present) {
      fetch_waits_.fetch_add(1, std::memory_order_relaxed);
      return DataLoss("missing map output for shuffle " + std::to_string(shuffle_id));
    }
    if (reduce_part < 0 || static_cast<size_t>(reduce_part) >= out.buckets.size()) {
      return Internal("bad reduce partition " + std::to_string(reduce_part));
    }
    buckets.push_back(FetchedBucket{out.node, out.buckets[static_cast<size_t>(reduce_part)]});
  }
  return buckets;
}

size_t ShuffleManager::DropNodeOutputs(int shuffle_id, NodeId node) {
  MutexLock lock(&mutex_);
  auto it = shuffles_.find(shuffle_id);
  if (it == shuffles_.end()) {
    return 0;
  }
  size_t dropped = 0;
  for (auto& out : it->second.outputs) {
    if (out.present && out.node == node) {
      out.present = false;
      out.buckets.clear();
      ++dropped;
    }
  }
  return dropped;
}

void ShuffleManager::OnNodeRevoked(NodeId node) {
  MutexLock lock(&mutex_);
  for (auto& [id, state] : shuffles_) {
    for (auto& out : state.outputs) {
      if (out.present && out.node == node) {
        out.present = false;
        out.buckets.clear();
      }
    }
  }
}

uint64_t ShuffleManager::TotalBytes() const {
  ReaderMutexLock lock(&mutex_);
  uint64_t total = 0;
  for (const auto& [id, state] : shuffles_) {
    for (const auto& out : state.outputs) {
      for (const auto& b : out.buckets) {
        if (b != nullptr) {
          total += b->SizeBytes();
        }
      }
    }
  }
  return total;
}

uint64_t ShuffleManager::RecentShuffleBytes(int last_n) const {
  ReaderMutexLock lock(&mutex_);
  std::vector<int> ids;
  ids.reserve(shuffles_.size());
  for (const auto& [id, state] : shuffles_) {
    ids.push_back(id);
  }
  std::sort(ids.rbegin(), ids.rend());
  if (static_cast<size_t>(last_n) < ids.size()) {
    ids.resize(static_cast<size_t>(last_n));
  }
  uint64_t total = 0;
  for (int id : ids) {
    for (const auto& out : shuffles_.at(id).outputs) {
      for (const auto& b : out.buckets) {
        if (b != nullptr) {
          total += b->SizeBytes();
        }
      }
    }
  }
  return total;
}

size_t ShuffleManager::NumShuffles() const {
  ReaderMutexLock lock(&mutex_);
  return shuffles_.size();
}

}  // namespace flint
