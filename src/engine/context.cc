#include "src/engine/context.h"

#include <algorithm>
#include <utility>

#include "src/common/log.h"
#include "src/engine/checkpoint_io.h"
#include "src/engine/dag_scheduler.h"
#include "src/engine/lambda_rdd.h"
#include "src/engine/task_context.h"
#include "src/obs/trace.h"

// flint-lint: allow-file(det-wallclock) acquisition-wait accounting and liveness-wait deadlines; no partition data derives from the clock

namespace flint {

namespace {

// nodes_ is an unordered map, so any snapshot handed to the scheduler must be
// re-ordered: PickNode walks these vectors, and placement (hence recompute
// interleaving) has to replay identically run over run.
void SortNodesById(std::vector<std::shared_ptr<NodeState>>& nodes) {
  std::sort(nodes.begin(), nodes.end(),
            [](const std::shared_ptr<NodeState>& a, const std::shared_ptr<NodeState>& b) {
              return a->info.node_id < b->info.node_id;
            });
}

}  // namespace

FlintContext::FlintContext(ClusterManager* cluster, Dfs* dfs, EngineConfig config)
    : cluster_(cluster), dfs_(dfs), config_(config) {
  scheduler_ = std::make_unique<DagScheduler>(this);
  dfs_->SetLatencyModel(&latency_);
  cluster_->SetListener(this);
  // The latency model's remaining accounts (shuffle fetch is
  // EngineCounters::net_fetch_wait_nanos).
  metrics_.AddNanos("flint_engine_remote_cache_wait_seconds",
                    latency_.Account(Layer::kCacheRemote));
  metrics_.AddNanos("flint_engine_latency_origin_read_seconds",
                    latency_.Account(Layer::kOriginRead));
  metrics_.AddNanos("flint_engine_latency_spill_seconds", latency_.Account(Layer::kSpill));
  metrics_.AddNanos("flint_engine_latency_dfs_write_seconds", latency_.Account(Layer::kDfsWrite));
  metrics_.AddNanos("flint_engine_latency_dfs_read_seconds", latency_.Account(Layer::kDfsRead));
  metrics_.AddNanos("flint_engine_latency_injected_slow_seconds",
                    latency_.Account(Layer::kInjectedSlow));
}

FlintContext::~FlintContext() {
  // Stop receiving lifecycle events, then let node pools drain.
  cluster_->DrainEvents();
  DrainExecutors();
  dfs_->SetLatencyModel(nullptr);
}

int FlintContext::NextRddId() { return next_rdd_id_.fetch_add(1, std::memory_order_relaxed); }

int FlintContext::NextShuffleId() {
  return next_shuffle_id_.fetch_add(1, std::memory_order_relaxed);
}

RddPtr FlintContext::CreateRdd(std::string name, int num_partitions,
                               std::vector<Dependency> deps,
                               std::function<Result<PartitionPtr>(int, TaskContext&)> fn) {
  auto rdd = std::make_shared<LambdaRdd>(this, std::move(name), num_partitions, std::move(deps),
                                         std::move(fn));
  {
    MutexLock lock(&rdd_mutex_);
    rdds_[rdd->id()] = rdd;
  }
  for (EngineObserver* obs : ObserversSnapshot()) {
    obs->OnRddCreated(rdd);
  }
  return rdd;
}

void FlintContext::RegisterShuffleInfo(const std::shared_ptr<ShuffleInfo>& info) {
  {
    MutexLock lock(&rdd_mutex_);
    shuffle_infos_[info->shuffle_id] = info;
  }
  shuffle_mgr_.RegisterShuffle(info->shuffle_id, info->num_map_partitions,
                               info->num_reduce_partitions);
}

std::shared_ptr<ShuffleInfo> FlintContext::LookupShuffle(int shuffle_id) const {
  ReaderMutexLock lock(&rdd_mutex_);
  auto it = shuffle_infos_.find(shuffle_id);
  if (it == shuffle_infos_.end()) {
    return nullptr;
  }
  return it->second.lock();
}

void FlintContext::AddObserver(EngineObserver* observer) {
  MutexLock lock(&observers_mutex_);
  observers_.push_back(observer);
}

void FlintContext::RemoveObserver(EngineObserver* observer) {
  MutexLock lock(&observers_mutex_);
  std::erase(observers_, observer);
}

std::vector<EngineObserver*> FlintContext::ObserversSnapshot() const {
  ReaderMutexLock lock(&observers_mutex_);
  return observers_;
}

Result<std::vector<PartitionPtr>> FlintContext::Materialize(const RddPtr& rdd) {
  MutexLock job_lock(&job_mutex_);
  return scheduler_->Materialize(rdd);
}

Result<std::vector<PartitionPtr>> FlintContext::MaterializePartitions(
    const RddPtr& rdd, const std::vector<int>& partitions) {
  MutexLock job_lock(&job_mutex_);
  return scheduler_->MaterializePartitions(rdd, partitions);
}

// --- block registry ---

PartitionPtr FlintContext::LookupBlock(const BlockKey& key, NodeId reader, bool take) {
  // Each round re-reads the registry and tries one location not yet tried,
  // the reader's own first: a location that went stale since the last round
  // (evicted, or taken by another reader that has already registered its
  // copy) falls through to wherever the block is now.
  std::vector<NodeId> tried;
  for (;;) {
    NodeId source = -1;
    {
      ReaderMutexLock lock(&registry_mutex_);
      auto it = block_locations_.find(key);
      if (it == block_locations_.end()) {
        return nullptr;
      }
      for (NodeId n : it->second) {
        if (std::find(tried.begin(), tried.end(), n) != tried.end()) {
          continue;
        }
        if (n == reader || source < 0) {
          source = n;
        }
        if (n == reader) {
          break;
        }
      }
    }
    if (source < 0) {
      return nullptr;
    }
    tried.push_back(source);
    std::shared_ptr<NodeState> node = GetNodeState(source);
    if (node == nullptr || node->revoked.load(std::memory_order_acquire)) {
      continue;
    }
    PartitionPtr data = node->blocks->Get(key);
    if (data == nullptr) {
      EraseStaleLocation(key, *node);
      continue;
    }
    if (source == reader) {
      return data;
    }
    const uint64_t bytes = data->SizeBytes();
    counters_.remote_cache_reads.fetch_add(1, std::memory_order_relaxed);
    counters_.remote_cache_read_bytes.fetch_add(bytes, std::memory_order_relaxed);
    latency_.Transfer(Layer::kCacheRemote, bytes, config_.remote_fetch_bandwidth_bytes_per_s);
    if (take && !node->draining.load(std::memory_order_acquire)) {
      std::shared_ptr<NodeState> dest = GetNodeState(reader);
      if (dest != nullptr && !dest->draining.load(std::memory_order_acquire) &&
          dest->blocks->num_rdd_blocks(key.rdd_id) < node->blocks->num_rdd_blocks(key.rdd_id) &&
          StoreBlock(key, reader, data, /*evict=*/false) &&
          !dest->revoked.load(std::memory_order_acquire)) {
        node->blocks->Erase(key);
        EraseStaleLocation(key, *node);
        counters_.cache_blocks_moved.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return data;
  }
}

void FlintContext::EraseStaleLocation(const BlockKey& key, const NodeState& node) {
  MutexLock lock(&registry_mutex_);
  // Re-checked under the lock: the node may have stored the block again
  // since the caller found it missing.
  if (node.blocks->Contains(key)) {
    return;
  }
  auto it = block_locations_.find(key);
  if (it != block_locations_.end()) {
    std::erase(it->second, node.info.node_id);
    if (it->second.empty()) {
      block_locations_.erase(it);
    }
  }
}

bool FlintContext::StoreBlock(const BlockKey& key, NodeId node_id, PartitionPtr data,
                              bool evict) {
  std::shared_ptr<NodeState> node = GetNodeState(node_id);
  if (node == nullptr || node->revoked.load(std::memory_order_acquire)) {
    return false;
  }
  bool stored = false;
  std::vector<BlockEviction> evictions = node->blocks->Put(key, std::move(data), &stored, evict);
  MutexLock lock(&registry_mutex_);
  for (const auto& ev : evictions) {
    if (!ev.spilled) {
      auto it = block_locations_.find(ev.key);
      if (it != block_locations_.end()) {
        std::erase(it->second, node_id);
        if (it->second.empty()) {
          block_locations_.erase(it);
        }
      }
    }
    // Spilled blocks stay addressable on this node.
  }
  if (stored) {
    auto& locations = block_locations_[key];
    if (std::find(locations.begin(), locations.end(), node_id) == locations.end()) {
      locations.push_back(node_id);
    }
  }
  return stored;
}

bool FlintContext::BlockAvailable(const BlockKey& key) const {
  ReaderMutexLock lock(&registry_mutex_);
  auto it = block_locations_.find(key);
  return it != block_locations_.end() && !it->second.empty();
}

std::vector<std::pair<BlockKey, NodeId>> FlintContext::BlockRegistrySnapshot() const {
  ReaderMutexLock lock(&registry_mutex_);
  std::vector<std::pair<BlockKey, NodeId>> out;
  out.reserve(block_locations_.size());
  for (const auto& [key, nodes] : block_locations_) {
    if (!nodes.empty()) {
      out.emplace_back(key, nodes.front());
    }
  }
  // block_locations_ is an unordered map; give callers (checkpoint sweeps,
  // restore planning) a stable order so their behaviour replays identically.
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first.rdd_id, a.first.partition) <
           std::tie(b.first.rdd_id, b.first.partition);
  });
  return out;
}

void FlintContext::UnpersistRdd(const RddPtr& rdd) {
  if (rdd == nullptr) {
    return;
  }
  rdd->set_cache(false);
  std::vector<std::shared_ptr<NodeState>> nodes = LiveNodeStates();
  for (int p = 0; p < rdd->num_partitions(); ++p) {
    const BlockKey key{rdd->id(), p};
    for (const auto& node : nodes) {
      node->blocks->Erase(key);
    }
    MutexLock lock(&registry_mutex_);
    block_locations_.erase(key);
  }
}

bool FlintContext::AllPartitionsAvailable(const RddPtr& rdd) const {
  if (rdd->checkpoint_state() == CheckpointState::kSaved) {
    return true;
  }
  for (int p = 0; p < rdd->num_partitions(); ++p) {
    if (!BlockAvailable(BlockKey{rdd->id(), p})) {
      return false;
    }
  }
  return rdd->num_partitions() > 0;
}

// --- nodes ---

std::vector<std::shared_ptr<NodeState>> FlintContext::LiveNodeStates() const {
  ReaderMutexLock lock(&nodes_mutex_);
  std::vector<std::shared_ptr<NodeState>> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) {
    if (!node->revoked.load(std::memory_order_acquire)) {
      out.push_back(node);
    }
  }
  SortNodesById(out);
  return out;
}

std::vector<std::shared_ptr<NodeState>> FlintContext::SchedulableNodeStates() const {
  ReaderMutexLock lock(&nodes_mutex_);
  std::vector<std::shared_ptr<NodeState>> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) {
    if (node->Schedulable()) {
      out.push_back(node);
    }
  }
  SortNodesById(out);
  return out;
}

bool FlintContext::SetNodeQuarantined(NodeId id, bool quarantined) {
  std::shared_ptr<NodeState> node;
  {
    MutexLock lock(&nodes_mutex_);
    auto it = nodes_.find(id);
    if (it == nodes_.end()) {
      return false;
    }
    node = it->second;
    if (quarantined) {
      if (node->quarantined.load(std::memory_order_acquire)) {
        return false;
      }
      // Never quarantine the last schedulable node: a cluster where nothing
      // accepts tasks wedges every stage loop. Better to keep dispatching to
      // a slow node than to no node.
      node->quarantined.store(true, std::memory_order_release);
      if (!HasSchedulableNodeLocked()) {
        node->quarantined.store(false, std::memory_order_release);
        return false;
      }
      return true;
    }
    if (!node->quarantined.load(std::memory_order_acquire)) {
      return false;
    }
    node->quarantined.store(false, std::memory_order_release);
  }
  // A node rejoined the schedulable set; wake any parked stage loop.
  node_added_cv_.NotifyAll();
  return true;
}

void FlintContext::SetNodeLinkBandwidth(NodeId id, double bytes_per_s) {
  std::shared_ptr<NodeState> node = GetNodeState(id);
  if (node == nullptr || bytes_per_s <= 0.0) {
    return;
  }
  node->link_bandwidth_bytes_per_s.store(bytes_per_s, std::memory_order_relaxed);
}

std::shared_ptr<NodeState> FlintContext::GetNodeState(NodeId id) const {
  ReaderMutexLock lock(&nodes_mutex_);
  auto it = nodes_.find(id);
  if (it != nodes_.end()) {
    return it->second;
  }
  for (const auto& node : retired_) {
    if (node->info.node_id == id) {
      return node;
    }
  }
  return nullptr;
}

void FlintContext::DrainExecutors() {
  // Pools are waited on outside nodes_mutex_: in-flight tasks take that lock.
  std::vector<std::shared_ptr<NodeState>> all;
  {
    MutexLock lock(&nodes_mutex_);
    for (auto& [id, node] : nodes_) {
      // flint-lint: allow(det-unordered-iter) every pool is Wait()ed on; join order is irrelevant
      all.push_back(node);
    }
    for (auto& node : retired_) {
      all.push_back(node);
    }
  }
  for (auto& node : all) {
    node->pool->Wait();
  }
}

bool FlintContext::HasSchedulableNodeLocked() const {
  for (const auto& [id, node] : nodes_) {
    if (node->Schedulable()) {
      return true;
    }
  }
  return false;
}

Status FlintContext::WaitForLiveNode(WallTime deadline) {
  const auto t0 = WallClock::now();
  bool timed_out = false;
  {
    MutexLock lock(&nodes_mutex_);
    // A node that is merely draining (revocation warning) cannot take new
    // tasks, so waiting on it would spin; require a schedulable node.
    while (!timed_out && !HasSchedulableNodeLocked()) {
      if (deadline == WallTime::max()) {  // watchdog off: no deadline
        node_added_cv_.Wait(nodes_mutex_);
      } else if (node_added_cv_.WaitUntil(nodes_mutex_, deadline) == std::cv_status::timeout) {
        timed_out = !HasSchedulableNodeLocked();
      }
    }
  }
  counters_.acquisition_wait_nanos.fetch_add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(WallClock::now() - t0).count(),
      std::memory_order_relaxed);
  return timed_out ? DeadlineExceeded("no schedulable node") : Status::Ok();
}

// --- checkpoint plumbing ---

bool FlintContext::ClaimCheckpointWrite(const std::string& path) {
  MutexLock lock(&ckpt_mutex_);
  return ckpt_inflight_.insert(path).second;
}

void FlintContext::ReleaseCheckpointWrite(const std::string& path) {
  MutexLock lock(&ckpt_mutex_);
  ckpt_inflight_.erase(path);
}

bool FlintContext::CheckpointWriteInFlight(const std::string& path) const {
  ReaderMutexLock lock(&ckpt_mutex_);
  return ckpt_inflight_.count(path) > 0;
}

Status FlintContext::WriteCheckpointData(const RddPtr& rdd, int partition, PartitionPtr data) {
  FireProbe(EnginePoint::kCheckpointWrite);
  const std::string path = rdd->CheckpointPath(partition);
  // Atomic claim: exactly one writer proceeds per path. A loser returns OK —
  // the holder either lands the write (and notifies) or fails it (and the
  // FT manager's pending sweep re-enqueues the partition later).
  if (!ClaimCheckpointWrite(path)) {
    return Status::Ok();
  }
  if (dfs_->Exists(path)) {
    ReleaseCheckpointWrite(path);
    return Status::Ok();
  }
  DfsObject obj;
  obj.size_bytes = data->SizeBytes();
  obj.crc32 = PartitionFingerprint(*data, rdd->id(), partition);
  obj.data = std::static_pointer_cast<const void>(data);
  DfsRetryStats retry_stats;
  Status st = PutWithRetry(*dfs_, path, obj, config_.checkpoint_retry, &retry_stats);
  CountCheckpointRetries(retry_stats, /*write=*/true);
  if (!st.ok()) {
    counters_.writes_abandoned.fetch_add(1, std::memory_order_relaxed);
    ReleaseCheckpointWrite(path);
    FLINT_WLOG() << "checkpoint write abandoned after " << retry_stats.attempts
                 << " attempt(s): " << path << ": " << st.ToString();
    for (EngineObserver* obs : ObserversSnapshot()) {
      obs->OnCheckpointWriteFailed(rdd, partition, st);
    }
    return st;
  }
  {
    MutexLock lock(&ckpt_mutex_);
    ckpt_written_[rdd->id()][partition] = CheckpointPartitionMeta{obj.size_bytes, obj.crc32};
  }
  ReleaseCheckpointWrite(path);
  counters_.checkpoint_writes.fetch_add(1, std::memory_order_relaxed);
  counters_.checkpoint_bytes.fetch_add(data->SizeBytes(), std::memory_order_relaxed);
  for (EngineObserver* obs : ObserversSnapshot()) {
    obs->OnCheckpointWritten(rdd, partition, data->SizeBytes());
  }
  return Status::Ok();
}

void FlintContext::CountCheckpointRetries(const DfsRetryStats& stats, bool write) {
  if (stats.attempts > 1) {
    const uint64_t retries = static_cast<uint64_t>(stats.attempts - 1);
    counters_.dfs_retry_attempts.fetch_add(retries, std::memory_order_relaxed);
    if (write) {
      counters_.write_retries.fetch_add(retries, std::memory_order_relaxed);
    }
  }
  if (stats.exhausted) {
    counters_.dfs_retry_exhausted.fetch_add(1, std::memory_order_relaxed);
  }
}

Status FlintContext::WriteCheckpointNow(const RddPtr& rdd, int partition, TaskContext& tc) {
  const std::string path = rdd->CheckpointPath(partition);
  // Cheap pre-checks before the expensive materialization; the write itself
  // is race-free regardless (WriteCheckpointData claims the path), these
  // just avoid recomputing a partition another writer is already handling.
  if (dfs_->Exists(path) || CheckpointWriteInFlight(path)) {
    return Status::Ok();
  }
  FLINT_ASSIGN_OR_RETURN(PartitionPtr data, tc.GetPartition(rdd, partition));
  return WriteCheckpointData(rdd, partition, std::move(data));
}

Status FlintContext::CommitCheckpointManifest(const RddPtr& rdd) {
  const int num_partitions = rdd->num_partitions();
  auto manifest = std::make_shared<CheckpointManifest>();
  manifest->rdd_id = rdd->id();
  manifest->partitions.resize(static_cast<size_t>(num_partitions));
  {
    MutexLock lock(&ckpt_mutex_);
    auto it = ckpt_written_.find(rdd->id());
    if (it == ckpt_written_.end() || static_cast<int>(it->second.size()) != num_partitions) {
      return FailedPrecondition("checkpoint for rdd " + std::to_string(rdd->id()) +
                                " is incomplete; cannot commit manifest");
    }
    for (const auto& [partition, meta] : it->second) {
      manifest->partitions[static_cast<size_t>(partition)] = meta;
    }
  }
  // Verify-before-commit: every partition object must still be present and
  // byte-identical (by size + checksum) to what the writer recorded. A
  // mismatch here means the store corrupted data between write and commit —
  // the manifest must not bless it.
  for (int p = 0; p < num_partitions; ++p) {
    const CheckpointPartitionMeta& meta = manifest->partitions[static_cast<size_t>(p)];
    auto stat = dfs_->Stat(rdd->CheckpointPath(p));
    if (!stat.ok()) {
      return DataLoss("checkpoint partition " + std::to_string(p) + " of rdd " +
                      std::to_string(rdd->id()) + " vanished before commit: " +
                      stat.status().ToString());
    }
    if (stat->size_bytes != meta.size_bytes || stat->crc32 != meta.crc32) {
      return DataLoss("checkpoint partition " + std::to_string(p) + " of rdd " +
                      std::to_string(rdd->id()) + " failed verification before commit");
    }
  }
  DfsRetryStats retry_stats;
  Status st =
      PutWithRetry(*dfs_, rdd->ManifestPath(), MakeManifestObject(std::move(manifest)),
                   config_.checkpoint_retry, &retry_stats);
  CountCheckpointRetries(retry_stats, /*write=*/true);
  if (!st.ok()) {
    counters_.writes_abandoned.fetch_add(1, std::memory_order_relaxed);
    return st;
  }
  MutexLock lock(&ckpt_mutex_);
  ckpt_written_.erase(rdd->id());
  return Status::Ok();
}

void FlintContext::QuarantineCheckpoint(const RddPtr& rdd, const std::string& reason) {
  rdd->ResetCheckpoint();
  const size_t removed = dfs_->DeletePrefix(rdd->CheckpointDir());
  counters_.checkpoints_quarantined.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(&ckpt_mutex_);
    ckpt_written_.erase(rdd->id());
  }
  FLINT_WLOG() << "checkpoint quarantined: rdd " << rdd->id() << " (" << reason << "), "
               << removed << " object(s) deleted; recovery falls back to lineage";
}

Result<PartitionPtr> FlintContext::RestoreFromCheckpoint(const RddPtr& rdd, int partition) {
  DfsRetryStats retry_stats;
  auto manifest_r =
      ReadManifest(*dfs_, rdd->ManifestPath(), config_.checkpoint_retry, &retry_stats);
  CountCheckpointRetries(retry_stats, /*write=*/false);
  if (!manifest_r.ok()) {
    counters_.restores_fallen_back.fetch_add(1, std::memory_order_relaxed);
    if (manifest_r.status().code() == StatusCode::kNotFound) {
      // Torn checkpoint (manifest never landed) or GC'd underneath us: the
      // checkpoint simply does not exist. Demote quietly; nothing useful to
      // quarantine.
      rdd->ResetCheckpoint();
      FLINT_WLOG() << "checkpoint for rdd " << rdd->id()
                   << " has no manifest; falling back to lineage";
    } else {
      QuarantineCheckpoint(rdd, "manifest unreadable: " + manifest_r.status().ToString());
    }
    return manifest_r.status();
  }
  const ManifestPtr& manifest = *manifest_r;
  if (manifest->rdd_id != rdd->id() ||
      static_cast<int>(manifest->partitions.size()) != rdd->num_partitions() ||
      partition >= static_cast<int>(manifest->partitions.size())) {
    counters_.restores_fallen_back.fetch_add(1, std::memory_order_relaxed);
    QuarantineCheckpoint(rdd, "manifest does not describe this RDD");
    return DataLoss("checkpoint manifest mismatch for rdd " + std::to_string(rdd->id()));
  }
  const CheckpointPartitionMeta& meta = manifest->partitions[static_cast<size_t>(partition)];
  auto obj_r = GetWithRetry(*dfs_, rdd->CheckpointPath(partition), config_.checkpoint_retry,
                            &retry_stats);
  CountCheckpointRetries(retry_stats, /*write=*/false);
  if (!obj_r.ok()) {
    counters_.restores_fallen_back.fetch_add(1, std::memory_order_relaxed);
    if (obj_r.status().code() == StatusCode::kNotFound) {
      // Clean miss (GC raced the restore): demote and recompute.
      rdd->ResetCheckpoint();
      FLINT_WLOG() << "checkpoint partition " << partition << " of rdd " << rdd->id()
                   << " missing; falling back to lineage";
    } else {
      QuarantineCheckpoint(rdd, "partition " + std::to_string(partition) +
                                    " unreadable: " + obj_r.status().ToString());
    }
    return obj_r.status();
  }
  const DfsObject& obj = *obj_r;
  PartitionPtr data = std::static_pointer_cast<const PartitionData>(obj.data);
  const bool matches_manifest = obj.size_bytes == meta.size_bytes && obj.crc32 == meta.crc32;
  const bool matches_content =
      data != nullptr && obj.crc32 == PartitionFingerprint(*data, rdd->id(), partition);
  if (!matches_manifest || !matches_content) {
    counters_.restores_fallen_back.fetch_add(1, std::memory_order_relaxed);
    QuarantineCheckpoint(rdd, "partition " + std::to_string(partition) +
                                  " failed checksum verification");
    return DataLoss("corrupt checkpoint partition " + std::to_string(partition) + " of rdd " +
                    std::to_string(rdd->id()));
  }
  counters_.checkpoint_reads.fetch_add(1, std::memory_order_relaxed);
  return data;
}

Status FlintContext::EnqueueCheckpointWrite(const RddPtr& rdd, int partition) {
  // Pick any schedulable node's executor; checkpoint tasks consume the same
  // CPU/IO the paper's checkpointing tasks do.
  auto live = SchedulableNodeStates();
  if (live.empty()) {
    return Unavailable("no live node for checkpoint write");
  }
  const size_t pick = static_cast<size_t>(round_robin_.fetch_add(1, std::memory_order_relaxed)) %
                      live.size();
  std::shared_ptr<NodeState> node = live[pick];
  const bool queued = node->pool->Submit([this, rdd, partition, node] {
    TaskContext tc(this, node);
    Status st = WriteCheckpointNow(rdd, partition, tc);
    if (!st.ok() && st.code() != StatusCode::kUnavailable) {
      FLINT_WLOG() << "checkpoint write failed: " << st.ToString();
    }
  });
  if (!queued) {
    return Unavailable("node pool shutting down");
  }
  return Status::Ok();
}

void FlintContext::NotifyPartitionComputed(const RddPtr& rdd, int partition, double seconds) {
  counters_.partitions_computed.fetch_add(1, std::memory_order_relaxed);
  counters_.compute_nanos.fetch_add(static_cast<int64_t>(seconds * 1e9),
                                    std::memory_order_relaxed);
  bool first_full_materialization = false;
  {
    MutexLock lock(&rdd_mutex_);
    auto& counts = computed_counts_[rdd->id()];
    int& c = counts[partition];
    ++c;
    if (c > 1) {
      counters_.partitions_recomputed.fetch_add(1, std::memory_order_relaxed);
      Tracer::Global().RecordInstant("recompute", "engine",
                                     {{"rdd", static_cast<double>(rdd->id())},
                                      {"partition", static_cast<double>(partition)},
                                      {"times_computed", static_cast<double>(c)}});
    }
    if (static_cast<int>(counts.size()) == rdd->num_partitions() &&
        materialized_fired_.insert(rdd->id()).second) {
      first_full_materialization = true;
    }
  }
  if (first_full_materialization) {
    for (EngineObserver* obs : ObserversSnapshot()) {
      obs->OnRddMaterialized(rdd);
    }
  }
}

void FlintContext::NotifyTaskJudged(NodeId node, double seconds, bool on_time) {
  for (EngineObserver* obs : ObserversSnapshot()) {
    obs->OnTaskJudged(node, seconds, on_time);
  }
}

void FlintContext::NotifyLinkSample(NodeId node, double throughput_ratio, bool late) {
  for (EngineObserver* obs : ObserversSnapshot()) {
    obs->OnLinkSample(node, throughput_ratio, late);
  }
}

// --- ClusterListener ---

void FlintContext::OnNodeAdded(const NodeInfo& info) {
  auto node = std::make_shared<NodeState>();
  node->info = info;
  BlockManagerConfig bm = config_.block_defaults;
  bm.memory_budget_bytes = info.memory_budget_bytes;
  node->blocks = std::make_unique<BlockManager>(bm, &latency_);
  node->pool = std::make_unique<ThreadPool>(static_cast<size_t>(info.executor_threads));
  if (config_.default_link_bandwidth_bytes_per_s > 0.0) {
    node->link_bandwidth_bytes_per_s.store(config_.default_link_bandwidth_bytes_per_s,
                                           std::memory_order_relaxed);
  }
  {
    MutexLock lock(&nodes_mutex_);
    nodes_[info.node_id] = std::move(node);
  }
  node_added_cv_.NotifyAll();
  Tracer::Global().RecordInstant("node_added", "cluster",
                                 {{"node", static_cast<double>(info.node_id)},
                                  {"market", static_cast<double>(info.market)}});
  for (EngineObserver* obs : ObserversSnapshot()) {
    obs->OnNodeAdded(info);
  }
}

void FlintContext::OnNodeWarning(const NodeInfo& info) {
  // The warned node keeps executing its queued tasks (and serving its cache)
  // until the revocation lands, but must not take new work — the scheduler
  // would otherwise keep dispatching to a server that is about to vanish.
  std::shared_ptr<NodeState> node;
  {
    MutexLock lock(&nodes_mutex_);
    auto it = nodes_.find(info.node_id);
    if (it != nodes_.end()) {
      node = it->second;
    }
  }
  if (node != nullptr) {
    node->draining.store(true, std::memory_order_release);
    node->pool->Close();
  }
  Tracer::Global().RecordInstant("revocation_warning", "cluster",
                                 {{"node", static_cast<double>(info.node_id)},
                                  {"market", static_cast<double>(info.market)}});
  for (EngineObserver* obs : ObserversSnapshot()) {
    obs->OnNodeWarning(info);
  }
}

void FlintContext::OnNodeRevoked(const NodeInfo& info) {
  std::shared_ptr<NodeState> node;
  {
    MutexLock lock(&nodes_mutex_);
    auto it = nodes_.find(info.node_id);
    if (it != nodes_.end()) {
      node = it->second;
      nodes_.erase(it);
      retired_.push_back(node);
    }
  }
  if (node != nullptr) {
    node->revoked.store(true, std::memory_order_release);
    node->draining.store(true, std::memory_order_release);
    node->pool->Close();  // a no-warning revocation never passed through drain
    node->blocks->Clear();
  }
  // Remove the node from the block registry and shuffle outputs: its memory
  // and local disk are gone.
  {
    MutexLock lock(&registry_mutex_);
    for (auto it = block_locations_.begin(); it != block_locations_.end();) {
      std::erase(it->second, info.node_id);
      if (it->second.empty()) {
        it = block_locations_.erase(it);
      } else {
        ++it;
      }
    }
  }
  shuffle_mgr_.OnNodeRevoked(info.node_id);
  Tracer::Global().RecordInstant("revocation", "cluster",
                                 {{"node", static_cast<double>(info.node_id)},
                                  {"market", static_cast<double>(info.market)}});
  for (EngineObserver* obs : ObserversSnapshot()) {
    obs->OnNodeRevoked(info);
  }
}

}  // namespace flint
