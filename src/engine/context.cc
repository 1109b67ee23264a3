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

// Exports EngineCounters + aggregated BlockManager/ShuffleManager counters
// into the registry namespace. Runs only at Snapshot() time.
void AppendCounter(std::vector<MetricSample>& out, const char* name, double v) {
  out.push_back({name, MetricType::kCounter, v});
}

void AppendGauge(std::vector<MetricSample>& out, const char* name, double v) {
  out.push_back({name, MetricType::kGauge, v});
}

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
  metrics_collector_ = ScopedCollector(
      &MetricsRegistry::Global(), [this](std::vector<MetricSample>& out) {
        const EngineCounters& c = counters_;
        AppendCounter(out, "flint_engine_tasks_run", c.tasks_run.load());
        AppendCounter(out, "flint_engine_task_failures", c.task_failures.load());
        AppendCounter(out, "flint_engine_partitions_computed", c.partitions_computed.load());
        AppendCounter(out, "flint_engine_partitions_recomputed",
                      c.partitions_recomputed.load());
        AppendCounter(out, "flint_engine_cache_hits", c.cache_hits.load());
        AppendCounter(out, "flint_engine_cache_misses", c.cache_misses.load());
        AppendCounter(out, "flint_engine_checkpoint_writes", c.checkpoint_writes.load());
        AppendCounter(out, "flint_engine_checkpoint_bytes", c.checkpoint_bytes.load());
        AppendCounter(out, "flint_engine_checkpoint_reads", c.checkpoint_reads.load());
        AppendCounter(out, "flint_dfs_write_retries", c.write_retries.load());
        AppendCounter(out, "flint_dfs_writes_abandoned", c.writes_abandoned.load());
        AppendCounter(out, "flint_engine_restores_fallen_back",
                      c.restores_fallen_back.load());
        AppendCounter(out, "flint_engine_checkpoints_quarantined",
                      c.checkpoints_quarantined.load());
        AppendCounter(out, "flint_engine_stage_rounds", c.stage_rounds.load());
        AppendCounter(out, "flint_engine_stage_parks", c.stage_parks.load());
        AppendCounter(out, "flint_fusion_fused_chains", c.fused_chains.load());
        AppendCounter(out, "flint_fusion_operators_elided",
                      c.fused_operators_elided.load());
        AppendCounter(out, "flint_shuffle_rows_bucketed_fused",
                      c.shuffle_rows_bucketed_fused.load());
        AppendCounter(out, "flint_shuffle_rows_bucketed_unfused",
                      c.shuffle_rows_bucketed_unfused.load());
        AppendCounter(out, "flint_shuffle_fused_bucket_chains",
                      c.shuffle_fused_bucket_chains.load());
        AppendCounter(out, "flint_shuffle_combine_hits", c.shuffle_combine_hits.load());
        AppendCounter(out, "flint_engine_stage_quantile_seeded",
                      c.stage_quantile_seeded.load());
        AppendCounter(out, "flint_engine_tasks_speculated", c.tasks_speculated.load());
        AppendCounter(out, "flint_engine_speculative_wins", c.speculative_wins.load());
        AppendCounter(out, "flint_engine_task_deadline_misses",
                      c.task_deadline_misses.load());
        AppendCounter(out, "flint_engine_task_retries", c.task_retries.load());
        AppendCounter(out, "flint_engine_tasks_cancelled", c.tasks_cancelled.load());
        AppendCounter(out, "flint_engine_stage_watchdog_timeouts",
                      c.stage_watchdog_timeouts.load());
        AppendCounter(out, "flint_engine_compute_seconds",
                      static_cast<double>(c.compute_nanos.load()) * 1e-9);
        AppendCounter(out, "flint_engine_acquisition_wait_seconds",
                      static_cast<double>(c.acquisition_wait_nanos.load()) * 1e-9);
        AppendCounter(out, "flint_engine_task_queue_wait_seconds",
                      static_cast<double>(c.task_queue_wait_nanos.load()) * 1e-9);
        AppendCounter(out, "flint_net_fetches", c.net_fetches.load());
        AppendCounter(out, "flint_net_fetch_bytes", c.net_fetch_bytes.load());
        AppendCounter(out, "flint_net_fetches_slow", c.net_fetches_slow.load());
        AppendCounter(out, "flint_net_fetch_retries", c.net_fetch_retries.load());
        AppendCounter(out, "flint_net_fetch_recomputes", c.net_fetch_recomputes.load());
        AppendCounter(out, "flint_net_fetch_wait_seconds",
                      static_cast<double>(c.net_fetch_wait_nanos.load()) * 1e-9);
        AppendCounter(out, "flint_engine_tasks_placed_local", c.tasks_placed_local.load());
        AppendCounter(out, "flint_engine_remote_cache_reads", c.remote_cache_reads.load());
        AppendCounter(out, "flint_engine_remote_cache_read_bytes",
                      c.remote_cache_read_bytes.load());
        AppendCounter(out, "flint_engine_remote_cache_wait_seconds",
                      latency_.Seconds(Layer::kCacheRemote));
        // flint_engine_latency_<layer>_seconds for the layers without a
        // named series (remote cache above, shuffle fetch under flint_net_).
        for (Layer layer : {Layer::kOriginRead, Layer::kSpill, Layer::kDfsWrite,
                            Layer::kDfsRead, Layer::kInjectedSlow}) {
          out.push_back({std::string("flint_engine_latency_") + LayerName(layer) + "_seconds",
                         MetricType::kCounter, latency_.Seconds(layer)});
        }

        // BlockManager cache traffic, aggregated over live + retired nodes
        // (a revoked node's history still happened).
        BlockManager::CacheCounters blocks;
        uint64_t memory_used = 0;
        uint64_t spill_used = 0;
        std::vector<std::shared_ptr<NodeState>> all;
        {
          MutexLock lock(&nodes_mutex_);
          for (const auto& [id, node] : nodes_) {
            // flint-lint: allow(det-unordered-iter) aggregated into order-independent integer counters
            all.push_back(node);
          }
          for (const auto& node : retired_) {
            all.push_back(node);
          }
        }
        for (const auto& node : all) {
          const BlockManager::CacheCounters nc = node->blocks->GetCacheCounters();
          blocks.hits += nc.hits;
          blocks.spill_hits += nc.spill_hits;
          blocks.misses += nc.misses;
          blocks.evictions += nc.evictions;
          blocks.spills += nc.spills;
          memory_used += node->blocks->memory_used();
          spill_used += node->blocks->spill_used();
        }
        AppendCounter(out, "flint_block_hits", blocks.hits);
        AppendCounter(out, "flint_block_spill_hits", blocks.spill_hits);
        AppendCounter(out, "flint_block_misses", blocks.misses);
        AppendCounter(out, "flint_block_evictions", blocks.evictions);
        AppendCounter(out, "flint_block_spills", blocks.spills);
        AppendGauge(out, "flint_block_memory_used_bytes",
                    static_cast<double>(memory_used));
        AppendGauge(out, "flint_block_spill_used_bytes", static_cast<double>(spill_used));

        AppendCounter(out, "flint_shuffle_fetch_waits", shuffle_mgr_.FetchWaits());
        AppendCounter(out, "flint_shuffle_map_outputs", shuffle_mgr_.MapOutputsRegistered());
        AppendCounter(out, "flint_shuffle_registered_bytes", shuffle_mgr_.RegisteredBytes());
        AppendGauge(out, "flint_shuffle_live_shuffles",
                    static_cast<double>(shuffle_mgr_.NumShuffles()));
        AppendGauge(out, "flint_shuffle_total_bytes",
                    static_cast<double>(shuffle_mgr_.TotalBytes()));
      });
}

FlintContext::~FlintContext() {
  // Stop receiving lifecycle events, then let node pools drain. Pools are
  // waited on outside nodes_mutex_ because in-flight tasks take that lock.
  cluster_->DrainEvents();
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

PartitionPtr FlintContext::LookupBlock(const BlockKey& key, NodeId local) {
  std::vector<NodeId> locations;
  {
    MutexLock lock(&registry_mutex_);
    auto it = block_locations_.find(key);
    if (it == block_locations_.end()) {
      return nullptr;
    }
    locations = it->second;
  }
  // Prefer the local replica.
  for (int pass = 0; pass < 2; ++pass) {
    for (NodeId n : locations) {
      const bool is_local = (n == local);
      if ((pass == 0) != is_local) {
        continue;
      }
      std::shared_ptr<NodeState> node = GetNodeState(n);
      if (node == nullptr || node->revoked.load(std::memory_order_acquire)) {
        continue;
      }
      if (PartitionPtr data = node->blocks->Get(key); data != nullptr) {
        if (!is_local) {
          const uint64_t bytes = data->SizeBytes();
          counters_.remote_cache_reads.fetch_add(1, std::memory_order_relaxed);
          counters_.remote_cache_read_bytes.fetch_add(bytes, std::memory_order_relaxed);
          latency_.Transfer(Layer::kCacheRemote, bytes, config_.remote_fetch_bandwidth_bytes_per_s);
        }
        return data;
      }
      // Stale location (evicted): clean it up.
      MutexLock lock(&registry_mutex_);
      auto it = block_locations_.find(key);
      if (it != block_locations_.end()) {
        std::erase(it->second, n);
        if (it->second.empty()) {
          block_locations_.erase(it);
        }
      }
    }
  }
  return nullptr;
}

void FlintContext::StoreBlock(const BlockKey& key, NodeId node_id, PartitionPtr data) {
  std::shared_ptr<NodeState> node = GetNodeState(node_id);
  if (node == nullptr || node->revoked.load(std::memory_order_acquire)) {
    return;
  }
  bool stored = false;
  std::vector<BlockEviction> evictions = node->blocks->Put(key, std::move(data), &stored);
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
    bool present = false;
    for (NodeId n : locations) {
      if (n == node_id) {
        present = true;
        break;
      }
    }
    if (!present) {
      locations.push_back(node_id);
    }
  }
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
    if (!node->revoked.load(std::memory_order_acquire) &&
        !node->draining.load(std::memory_order_acquire) &&
        !node->quarantined.load(std::memory_order_acquire)) {
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

void FlintContext::SetNodeHealthScore(NodeId id, double score) {
  std::shared_ptr<NodeState> node;
  {
    ReaderMutexLock lock(&nodes_mutex_);
    auto it = nodes_.find(id);
    if (it == nodes_.end()) {
      return;
    }
    node = it->second;
  }
  node->health_score.store(std::clamp(score, 0.0, 1.0), std::memory_order_relaxed);
}

void FlintContext::SetNodeLinkBandwidth(NodeId id, double bytes_per_s) {
  std::shared_ptr<NodeState> node = GetNodeState(id);
  if (node == nullptr || bytes_per_s <= 0.0) {
    return;
  }
  node->link_bandwidth_bytes_per_s.store(bytes_per_s, std::memory_order_relaxed);
}

void FlintContext::RecordLinkThroughput(NodeId id, double bytes_per_s) {
  std::shared_ptr<NodeState> node = GetNodeState(id);
  if (node == nullptr || bytes_per_s <= 0.0) {
    return;
  }
  const double alpha = config_.link_ewma_alpha;
  double prev = node->link_throughput_ewma.load(std::memory_order_relaxed);
  double next;
  do {
    next = prev <= 0.0 ? bytes_per_s : (1.0 - alpha) * prev + alpha * bytes_per_s;
  } while (!node->link_throughput_ewma.compare_exchange_weak(prev, next,
                                                             std::memory_order_relaxed));
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
    if (!node->revoked.load(std::memory_order_acquire) &&
        !node->draining.load(std::memory_order_acquire) &&
        !node->quarantined.load(std::memory_order_acquire)) {
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
  const auto t0 = WallClock::now();
  DfsObject obj;
  obj.size_bytes = data->SizeBytes();
  obj.crc32 = PartitionFingerprint(*data, rdd->id(), partition);
  obj.data = std::static_pointer_cast<const void>(data);
  DfsRetryStats retry_stats;
  Status st = PutWithRetry(*dfs_, path, obj, config_.checkpoint_retry, &retry_stats);
  if (retry_stats.attempts > 1) {
    counters_.write_retries.fetch_add(static_cast<uint64_t>(retry_stats.attempts - 1),
                                      std::memory_order_relaxed);
  }
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
  const double seconds = WallDuration(WallClock::now() - t0).count();
  counters_.checkpoint_writes.fetch_add(1, std::memory_order_relaxed);
  counters_.checkpoint_bytes.fetch_add(data->SizeBytes(), std::memory_order_relaxed);
  for (EngineObserver* obs : ObserversSnapshot()) {
    obs->OnCheckpointWritten(rdd, partition, data->SizeBytes(), seconds);
  }
  return Status::Ok();
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
  if (retry_stats.attempts > 1) {
    counters_.write_retries.fetch_add(static_cast<uint64_t>(retry_stats.attempts - 1),
                                      std::memory_order_relaxed);
  }
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
  auto manifest_r = ReadManifest(*dfs_, rdd->ManifestPath(), config_.checkpoint_retry);
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
  auto obj_r = GetWithRetry(*dfs_, rdd->CheckpointPath(partition), config_.checkpoint_retry);
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
  for (EngineObserver* obs : ObserversSnapshot()) {
    obs->OnPartitionComputed(rdd, partition, seconds);
    if (first_full_materialization) {
      obs->OnRddMaterialized(rdd);
    }
  }
}

void FlintContext::NotifyTaskAttemptFinished(NodeId node, double seconds,
                                             double stage_p50_seconds, bool success) {
  for (EngineObserver* obs : ObserversSnapshot()) {
    obs->OnTaskAttemptFinished(node, seconds, stage_p50_seconds, success);
  }
}

void FlintContext::NotifyTaskDeadlineMiss(NodeId node) {
  for (EngineObserver* obs : ObserversSnapshot()) {
    obs->OnTaskDeadlineMiss(node);
  }
}

void FlintContext::NotifyLinkSample(NodeId node, double throughput_ratio, bool slow) {
  for (EngineObserver* obs : ObserversSnapshot()) {
    obs->OnLinkSample(node, throughput_ratio, slow);
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
