// Distributed-file-system substrate for checkpoint storage.
//
// Models the paper's HDFS-on-EBS deployment: a replicated object store whose
// contents survive node revocations (EBS volumes are durable network disks),
// with bandwidth-modelled writes and reads. Writers pay `bytes /
// write_bandwidth` of wall time and readers `bytes / read_bandwidth` through
// the context's latency model; the replication factor multiplies write
// traffic. Objects are type-erased
// (shared_ptr<const void> + size) so the engine can store partition objects
// without a serialization layer, while raw-byte files are also supported for
// workload inputs.
//
// Real HDFS-on-EBS degrades and fails; an optional DfsFaultHook is consulted
// before every Put/Get so the fault-injection layer (src/inject) can script
// failed writes, unreadable objects, unavailability windows, and slow I/O.
// Each stored object carries a writer-supplied CRC32; injected corruption
// scrambles the stored checksum, which is how verified readers detect it.

#ifndef SRC_DFS_DFS_H_
#define SRC_DFS_DFS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/latency.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"

namespace flint {

struct DfsConfig {
  int replication = 3;
  // Effective per-writer bandwidths, in bytes of logical data per second.
  // Replication traffic is charged on top of these.
  double write_bandwidth_bytes_per_s = 256.0 * kMiB;
  double read_bandwidth_bytes_per_s = 512.0 * kMiB;
  // EBS-style storage price, $/GB/month (Sec 4: $0.10/GB/month SSD EBS).
  double storage_price_gb_month = 0.10;
};

// One stored object. `crc32` is a writer-supplied content checksum (0 when
// the writer does not checksum); verified readers compare it against the
// checkpoint manifest to detect corruption and torn writes.
struct DfsObject {
  std::shared_ptr<const void> data;
  uint64_t size_bytes = 0;
  uint64_t crc32 = 0;
};

// Metadata-only view of a stored object (no bandwidth charge).
struct DfsObjectStat {
  uint64_t size_bytes = 0;
  uint64_t crc32 = 0;
};

// Verdict a fault hook returns before a Put/Get executes. A non-OK status
// fails the operation with that status (nothing is stored/read and no
// bandwidth is charged); slow_factor multiplies the modelled transfer time.
struct DfsFaultVerdict {
  Status status = Status::Ok();
  double slow_factor = 1.0;
};

// Implemented by the fault injector. Consulted synchronously on the thread
// performing the operation; must be thread-safe and must not call back into
// the Dfs (cluster-level operations are fine).
class DfsFaultHook {
 public:
  virtual ~DfsFaultHook() = default;
  virtual DfsFaultVerdict OnPut(const std::string& path) = 0;
  virtual DfsFaultVerdict OnGet(const std::string& path) = 0;
};

class Dfs {
 public:
  explicit Dfs(DfsConfig config) : config_(config) {}

  const DfsConfig& config() const { return config_; }

  // Stores (or overwrites) `path`, waiting out the modelled write.
  // May fail with kUnavailable when a fault hook injects a storage failure.
  Status Put(const std::string& path, DfsObject object);

  // Fetches `path`, waiting out the modelled read. NotFound if missing; may
  // fail with kUnavailable under injected storage faults.
  Result<DfsObject> Get(const std::string& path) const;

  // Metadata lookup: size + stored checksum, no bandwidth charge and no
  // fault-hook consultation (models a cheap namenode query).
  Result<DfsObjectStat> Stat(const std::string& path) const;

  bool Exists(const std::string& path) const;
  Status Delete(const std::string& path);

  // Deletes every object whose path starts with `prefix`; returns the count.
  size_t DeletePrefix(const std::string& prefix);

  std::vector<std::string> List(const std::string& prefix) const;

  // Fault-injection hook: scrambles the stored checksum of every object whose
  // path starts with `prefix`, modelling silent bit rot that checksum
  // verification must catch. Returns the number of objects corrupted.
  size_t CorruptMatching(const std::string& prefix);

  // Current logical bytes stored (before replication).
  uint64_t TotalBytes() const;
  // Peak logical bytes ever stored; drives the storage-cost model.
  uint64_t PeakBytes() const;
  uint64_t NumObjects() const;

  // Aggregate bytes pushed through Put / pulled through Get since creation.
  uint64_t BytesWritten() const { return bytes_written_.load(); }
  uint64_t BytesRead() const { return bytes_read_.load(); }

  // Monthly storage cost at peak occupancy, including replication.
  double MonthlyStorageCost() const;

  // Put/Get charge kDfsWrite/kDfsRead to `model`; nullptr (the default)
  // charges nothing. FlintContext installs its own and clears it on exit.
  void SetLatencyModel(LatencyModel* model) { latency_.store(model, std::memory_order_release); }

  // At most one hook; install before running jobs, clear with nullptr. The
  // hook must outlive every operation it observes.
  void SetFaultHook(DfsFaultHook* hook) { fault_hook_.store(hook, std::memory_order_release); }

 private:
  DfsConfig config_;
  mutable Mutex mutex_{"Dfs::mutex_"};
  std::unordered_map<std::string, DfsObject> objects_ GUARDED_BY(mutex_);
  uint64_t total_bytes_ GUARDED_BY(mutex_) = 0;
  uint64_t peak_bytes_ GUARDED_BY(mutex_) = 0;
  mutable std::atomic<uint64_t> bytes_written_{0};
  mutable std::atomic<uint64_t> bytes_read_{0};
  std::atomic<LatencyModel*> latency_{nullptr};
  std::atomic<DfsFaultHook*> fault_hook_{nullptr};
};

// Helper to wrap a vector<T> as a DfsObject (shares ownership).
template <typename T>
DfsObject MakeDfsObject(std::shared_ptr<const std::vector<T>> vec) {
  DfsObject obj;
  obj.size_bytes = vec->size() * sizeof(T);
  obj.data = std::shared_ptr<const void>(vec, vec.get());
  return obj;
}

}  // namespace flint

#endif  // SRC_DFS_DFS_H_
