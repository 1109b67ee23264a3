#include "src/dfs/dfs.h"

#include <algorithm>

namespace flint {

namespace {

// XOR mask applied to a stored checksum by CorruptMatching. Nonzero so even
// an unchecksummed object (crc32 == 0) visibly changes.
constexpr uint64_t kCorruptionMask = 0x5A5A5A5AC3C3C3C3ULL;

}  // namespace

Status Dfs::Put(const std::string& path, DfsObject object) {
  if (path.empty()) {
    return InvalidArgument("empty DFS path");
  }
  if (object.data == nullptr && object.size_bytes != 0) {
    return InvalidArgument("null data with nonzero size");
  }
  double slow_factor = 1.0;
  if (DfsFaultHook* hook = fault_hook_.load(std::memory_order_acquire)) {
    DfsFaultVerdict verdict = hook->OnPut(path);
    if (!verdict.status.ok()) {
      return verdict.status;
    }
    slow_factor = verdict.slow_factor;
  }
  // write_bandwidth is effective per-writer throughput in logical bytes,
  // i.e. replication fan-out is already folded in; replication does show up
  // in MonthlyStorageCost.
  bytes_written_.fetch_add(object.size_bytes, std::memory_order_relaxed);
  if (LatencyModel* latency = latency_.load(std::memory_order_acquire)) {
    latency->Transfer(Layer::kDfsWrite, object.size_bytes, config_.write_bandwidth_bytes_per_s,
                      slow_factor);
  }
  MutexLock lock(&mutex_);
  auto it = objects_.find(path);
  if (it != objects_.end()) {
    total_bytes_ -= it->second.size_bytes;
  }
  total_bytes_ += object.size_bytes;
  peak_bytes_ = std::max(peak_bytes_, total_bytes_);
  objects_[path] = std::move(object);
  return Status::Ok();
}

Result<DfsObject> Dfs::Get(const std::string& path) const {
  double slow_factor = 1.0;
  if (DfsFaultHook* hook = fault_hook_.load(std::memory_order_acquire)) {
    DfsFaultVerdict verdict = hook->OnGet(path);
    if (!verdict.status.ok()) {
      return verdict.status;
    }
    slow_factor = verdict.slow_factor;
  }
  DfsObject obj;
  {
    ReaderMutexLock lock(&mutex_);
    auto it = objects_.find(path);
    if (it == objects_.end()) {
      return NotFound("DFS object " + path);
    }
    obj = it->second;
  }
  bytes_read_.fetch_add(obj.size_bytes, std::memory_order_relaxed);
  if (LatencyModel* latency = latency_.load(std::memory_order_acquire)) {
    latency->Transfer(Layer::kDfsRead, obj.size_bytes, config_.read_bandwidth_bytes_per_s,
                      slow_factor);
  }
  return obj;
}

Result<DfsObjectStat> Dfs::Stat(const std::string& path) const {
  ReaderMutexLock lock(&mutex_);
  auto it = objects_.find(path);
  if (it == objects_.end()) {
    return NotFound("DFS object " + path);
  }
  return DfsObjectStat{it->second.size_bytes, it->second.crc32};
}

bool Dfs::Exists(const std::string& path) const {
  ReaderMutexLock lock(&mutex_);
  return objects_.count(path) > 0;
}

Status Dfs::Delete(const std::string& path) {
  MutexLock lock(&mutex_);
  auto it = objects_.find(path);
  if (it == objects_.end()) {
    return NotFound("DFS object " + path);
  }
  total_bytes_ -= it->second.size_bytes;
  objects_.erase(it);
  return Status::Ok();
}

size_t Dfs::DeletePrefix(const std::string& prefix) {
  MutexLock lock(&mutex_);
  size_t removed = 0;
  for (auto it = objects_.begin(); it != objects_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      total_bytes_ -= it->second.size_bytes;
      it = objects_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<std::string> Dfs::List(const std::string& prefix) const {
  ReaderMutexLock lock(&mutex_);
  std::vector<std::string> out;
  for (const auto& [path, obj] : objects_) {
    if (path.rfind(prefix, 0) == 0) {
      out.push_back(path);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t Dfs::CorruptMatching(const std::string& prefix) {
  MutexLock lock(&mutex_);
  size_t corrupted = 0;
  for (auto& [path, obj] : objects_) {
    if (path.rfind(prefix, 0) == 0) {
      obj.crc32 ^= kCorruptionMask;
      ++corrupted;
    }
  }
  return corrupted;
}

uint64_t Dfs::TotalBytes() const {
  ReaderMutexLock lock(&mutex_);
  return total_bytes_;
}

uint64_t Dfs::PeakBytes() const {
  ReaderMutexLock lock(&mutex_);
  return peak_bytes_;
}

uint64_t Dfs::NumObjects() const {
  ReaderMutexLock lock(&mutex_);
  return objects_.size();
}

double Dfs::MonthlyStorageCost() const {
  const double gb =
      static_cast<double>(PeakBytes()) * std::max(1, config_.replication) / (1024.0 * 1024.0 * 1024.0);
  return gb * config_.storage_price_gb_month;
}

}  // namespace flint
