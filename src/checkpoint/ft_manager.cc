#include "src/checkpoint/ft_manager.h"

#include <algorithm>
#include <deque>

#include "src/common/log.h"
#include "src/obs/trace.h"

namespace flint {

namespace {

// Weight of the newest measured checkpoint round in the delta EWMA.
constexpr double kDeltaEwmaAlpha = 0.5;

}  // namespace

FaultToleranceManager::FaultToleranceManager(FlintContext* ctx, CheckpointConfig config)
    : ctx_(ctx),
      config_(config),
      mttf_hours_(config.mttf_hours),
      delta_seconds_(config.initial_delta_seconds),
      last_shuffle_checkpoint_(WallClock::now()) {
  ctx_->AddObserver(this);
  metrics_.AddGauge("flint_ft_delta_seconds", [this] { return CurrentDeltaSeconds(); });
  metrics_.AddGauge("flint_ft_tau_seconds", [this] { return CurrentTauSeconds(); });
  metrics_.AddGauge("flint_ft_mttf_hours", [this] {
    ReaderMutexLock lock(&mutex_);
    return mttf_hours_;
  });
  metrics_.AddGauge("flint_ft_degraded", [this] { return degraded() ? 1.0 : 0.0; });
}

FaultToleranceManager::~FaultToleranceManager() {
  Stop();
  // In-flight asynchronous checkpoint writes notify observers; drain them
  // before unregistering so none can reach a destroyed manager.
  ctx_->DrainExecutors();
  ctx_->RemoveObserver(this);
}

void FaultToleranceManager::Start() {
  if (config_.policy == CheckpointPolicyKind::kNone) {
    return;
  }
  MutexLock lock(&thread_mutex_);
  if (running_) {
    return;
  }
  running_ = true;
  stop_requested_ = false;
  signal_thread_ = std::thread([this] { SignalLoop(); });
}

void FaultToleranceManager::Stop() {
  {
    MutexLock lock(&thread_mutex_);
    if (!running_) {
      return;
    }
    stop_requested_ = true;
  }
  thread_cv_.NotifyAll();
  signal_thread_.join();
  {
    MutexLock lock(&thread_mutex_);
    running_ = false;
  }
}

void FaultToleranceManager::SetMttf(double mttf_hours) {
  {
    MutexLock lock(&mutex_);
    mttf_hours_ = mttf_hours;
  }
  thread_cv_.NotifyAll();  // re-evaluate tau promptly
}

double FaultToleranceManager::mttf_hours() const {
  ReaderMutexLock lock(&mutex_);
  return mttf_hours_;
}

double FaultToleranceManager::CurrentDeltaSeconds() const {
  ReaderMutexLock lock(&mutex_);
  return delta_seconds_;
}

double FaultToleranceManager::TauSecondsLocked() const {
  if (config_.policy == CheckpointPolicyKind::kFixedInterval) {
    return config_.fixed_interval_seconds;
  }
  const double mttf_engine_s = config_.time.ToEngineSeconds(mttf_hours_);
  const double tau = OptimalCheckpointInterval(delta_seconds_, mttf_engine_s);
  if (config_.policy == CheckpointPolicyKind::kSystemsLevel) {
    return tau / static_cast<double>(std::max(1, config_.sys_frequency_divisor));
  }
  return tau;
}

double FaultToleranceManager::CurrentTauSeconds() const {
  ReaderMutexLock lock(&mutex_);
  return TauSecondsLocked();
}

void FaultToleranceManager::SignalLoop() {
  // Hand-over-hand on thread_mutex_ (dropped around each round); balanced
  // Lock()/Unlock() on every path for the thread-safety analysis. Holding
  // thread_mutex_ while CurrentTauSeconds takes mutex_ establishes the
  // thread_mutex_ -> mutex_ lock order documented in the header.
  thread_mutex_.Lock();
  bool first_round = true;
  for (;;) {
    double tau = CurrentTauSeconds();
    // Cap the sleep so Stop() and MTTF updates are honored promptly even
    // when tau is huge/infinite. The first round fires early: Flint
    // checkpoints in advance "so there is always some checkpoint" (Sec 2.3),
    // rather than leaving the initial tau-long window unprotected.
    double sleep_s = std::isfinite(tau) ? std::min(tau, 30.0) : 1.0;
    if (first_round && std::isfinite(tau)) {
      sleep_s = std::min(sleep_s, std::max(0.2, tau / 4.0));
    }
    const WallTime deadline =
        WallClock::now() + std::chrono::duration_cast<WallClock::duration>(WallDuration(sleep_s));
    while (!stop_requested_ && WallClock::now() < deadline) {
      // Timeout vs. notify is irrelevant: the loop re-checks both conditions.
      (void)thread_cv_.WaitUntil(thread_mutex_, deadline);
    }
    if (stop_requested_) {
      thread_mutex_.Unlock();
      return;
    }
    if (std::isfinite(tau)) {
      first_round = false;
      thread_mutex_.Unlock();
      FireCheckpointRound();
      thread_mutex_.Lock();
    }
  }
}

void FaultToleranceManager::FireCheckpointRound() {
  SweepPendingNow();
  signals_fired_.fetch_add(1, std::memory_order_relaxed);
  if (TracingEnabled()) {
    double delta = 0.0;
    double tau = 0.0;
    {
      ReaderMutexLock lock(&mutex_);
      delta = delta_seconds_;
      tau = TauSecondsLocked();
    }
    Tracer::Global().RecordInstant("checkpoint_round", "checkpoint",
                                   {{"delta_s", delta}, {"tau_s", tau}});
  }
  // Degraded mode: the store has swallowed the retry budget of several
  // writes in a row. Signalling more checkpoints would only queue more
  // doomed work, so probe cheaply and skip the round until the probe lands.
  bool probe_needed = false;
  {
    MutexLock lock(&mutex_);
    probe_needed = degraded_;
  }
  if (probe_needed) {
    if (ProbeStore()) {
      bool recovered = false;
      {
        MutexLock lock(&mutex_);
        if (degraded_) {
          degraded_ = false;
          consecutive_write_failures_ = 0;
          degraded_recovered_.fetch_add(1, std::memory_order_relaxed);
          recovered = true;
        }
      }
      if (recovered) {
        FLINT_ILOG() << "DFS probe succeeded: leaving degraded mode, resuming checkpoints";
      }
    } else {
      signals_suspended_.fetch_add(1, std::memory_order_relaxed);
      FLINT_ILOG() << "degraded: checkpoint signal suspended (store still failing probes)";
      return;
    }
  }
  if (config_.policy == CheckpointPolicyKind::kSystemsLevel) {
    SystemsLevelSnapshot();
    return;
  }
  // Policy 1: checkpoint RDDs at the current frontier of the lineage graph.
  // Cached frontier RDDs are written immediately (from cache); additionally
  // the next RDD *generated* is marked so its partitions checkpoint as tasks
  // finish computing them (Sec 4).
  std::vector<RddPtr> to_checkpoint;
  {
    MutexLock lock(&mutex_);
    if (signal_pending_) {
      // The previous round's signal was never consumed (no RDD was generated
      // all interval). Count it as expired instead of letting it silently
      // carry over — the re-arm below refreshes the expiry window.
      signals_expired_.fetch_add(1, std::memory_order_relaxed);
    }
    signal_pending_ = true;
    signal_fired_at_ = WallClock::now();
    const double tau = TauSecondsLocked();
    signal_expiry_seconds_ = std::isfinite(tau)
                                 ? config_.signal_expiry_factor * tau
                                 : std::numeric_limits<double>::infinity();
    for (const auto& [id, rdd] : frontier_) {
      if (rdd->checkpoint_state() == CheckpointState::kNone && rdd->should_cache()) {
        to_checkpoint.push_back(rdd);
      }
    }
    for (const auto& [id, rdd] : cached_sources_) {
      if (rdd->checkpoint_state() == CheckpointState::kNone && rdd->should_cache()) {
        to_checkpoint.push_back(rdd);
      }
    }
  }
  for (const RddPtr& rdd : to_checkpoint) {
    CheckpointRddNow(rdd);
  }
}

void FaultToleranceManager::MarkRdd(const RddPtr& rdd, bool enqueue_writes) {
  if (rdd == nullptr || !rdd->MarkForCheckpoint()) {
    return;
  }
  {
    MutexLock lock(&mutex_);
    PendingCheckpoint pending;
    pending.rdd = rdd;
    for (int p = 0; p < rdd->num_partitions(); ++p) {
      pending.remaining.insert(p);
    }
    pending.started = WallClock::now();
    pending.last_progress = pending.started;
    pending_[rdd->id()] = std::move(pending);
  }
  FLINT_ILOG() << "checkpoint marked: rdd " << rdd->id() << " (" << rdd->name() << ")";
  if (!enqueue_writes) {
    // Partitions will be written as tasks finish computing them.
    return;
  }
  for (int p = 0; p < rdd->num_partitions(); ++p) {
    Status st = ctx_->EnqueueCheckpointWrite(rdd, p);
    if (!st.ok()) {
      FLINT_WLOG() << "checkpoint enqueue failed: " << st.ToString();
    }
  }
}

void FaultToleranceManager::CheckpointRddNow(const RddPtr& rdd) {
  MarkRdd(rdd, /*enqueue_writes=*/true);
}

void FaultToleranceManager::SystemsLevelSnapshot() {
  // Persist the entire RDD cache plus per-node executor state (shuffle
  // buffers), modelling a distributed whole-memory snapshot.
  const auto blocks = ctx_->BlockRegistrySnapshot();
  uint64_t epoch = 0;
  {
    MutexLock lock(&mutex_);
    epoch = ++sys_epoch_;
  }
  for (const auto& [key, node_id] : blocks) {
    auto node = ctx_->GetNodeState(node_id);
    if (node == nullptr || node->revoked.load(std::memory_order_acquire)) {
      continue;
    }
    // Best-effort: a rejected Submit is a node that started draining
    // mid-snapshot; its blocks are re-covered by the next epoch.
    (void)node->pool->Submit([this, key, node, epoch] {
      PartitionPtr data = node->blocks->Get(key);
      if (data == nullptr) {
        return;
      }
      DfsObject obj;
      obj.size_bytes = data->SizeBytes();
      obj.data = std::static_pointer_cast<const void>(data);
      const std::string path = "sys/epoch_" + std::to_string(epoch) + "/rdd_" +
                               std::to_string(key.rdd_id) + "_p" + std::to_string(key.partition);
      // Best-effort snapshot write: a failed epoch blob is superseded by the
      // next epoch; the RDD checkpoint path handles durability separately.
      (void)ctx_->dfs().Put(path, std::move(obj));
    });
  }
  // Shuffle buffers of the live (recent) shuffles are part of worker memory
  // and must be persisted too; one blob per node carries its share.
  const uint64_t shuffle_bytes = ctx_->shuffles().RecentShuffleBytes(3);
  auto live = ctx_->LiveNodeStates();
  if (shuffle_bytes > 0 && !live.empty()) {
    const uint64_t share = shuffle_bytes / live.size();
    for (const auto& node : live) {
      // A pool that closed (revocation warning) just skips its shuffle blob.
      (void)node->pool->Submit([this, node, share, epoch] {
        DfsObject obj;
        obj.size_bytes = share;
        obj.data = std::shared_ptr<const void>(
            new uint8_t(0), [](const void* p) { delete static_cast<const uint8_t*>(p); });
        const std::string path = "sys/epoch_" + std::to_string(epoch) + "/shuffle_node_" +
                                 std::to_string(node->info.node_id);
        // Best-effort: shuffle blobs exist only to charge snapshot bytes.
        (void)ctx_->dfs().Put(path, std::move(obj));
      });
    }
  }
  // Keep only the latest epoch (continuous snapshotting reuses space).
  if (epoch > 1) {
    ctx_->dfs().DeletePrefix("sys/epoch_" + std::to_string(epoch - 1) + "/");
  }
}

void FaultToleranceManager::PruneAncestorsLocked(const RddPtr& rdd) {
  std::deque<const Rdd*> queue;
  queue.push_back(rdd.get());
  std::unordered_set<int> visited;
  while (!queue.empty()) {
    const Rdd* cur = queue.front();
    queue.pop_front();
    for (const auto& dep : cur->deps()) {
      if (dep.parent == nullptr || !visited.insert(dep.parent->id()).second) {
        continue;
      }
      frontier_.erase(dep.parent->id());
      queue.push_back(dep.parent.get());
    }
  }
}

void FaultToleranceManager::OnRddCreated(const RddPtr& rdd) {
  if (config_.policy == CheckpointPolicyKind::kNone ||
      config_.policy == CheckpointPolicyKind::kSystemsLevel) {
    return;
  }
  // Sources carry no computation worth protecting; skip them.
  if (rdd->deps().empty()) {
    return;
  }
  bool mark = false;
  {
    MutexLock lock(&mutex_);
    if (degraded_) {
      // The store is rejecting writes; marking would only queue doomed work.
      // Pending signals stay armed (their expiry handles staleness).
      return;
    }
    if (signal_pending_) {
      signal_pending_ = false;
      const double age = WallDuration(WallClock::now() - signal_fired_at_).count();
      if (age <= signal_expiry_seconds_) {
        // "After signaling, each new RDD generated at the frontier of its
        // lineage graph is marked for checkpointing."
        mark = true;
      } else {
        // Stale: the signal outlived the interval it was fired for (idle
        // lull, long revocation stall). Marking this unrelated RDD now would
        // double-checkpoint the next interval; drop it and fall through to
        // the regular shuffle-boost policy.
        signals_expired_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!mark && config_.policy == CheckpointPolicyKind::kFlint && config_.shuffle_boost &&
        rdd->is_shuffle_output()) {
      // Shuffle RDDs checkpoint at tau / #map-partitions (Sec 3.1.1): wide
      // dependencies make their recomputation disproportionately expensive.
      int num_maps = 1;
      for (const auto& dep : rdd->deps()) {
        if (dep.type == DepType::kShuffle && dep.shuffle != nullptr) {
          num_maps = std::max(num_maps, dep.shuffle->num_map_partitions);
        }
      }
      const double tau = TauSecondsLocked();
      const double boost_interval = std::isfinite(tau)
                                        ? tau / static_cast<double>(num_maps)
                                        : std::numeric_limits<double>::infinity();
      const double since = WallDuration(WallClock::now() - last_shuffle_checkpoint_).count();
      if (since >= boost_interval) {
        last_shuffle_checkpoint_ = WallClock::now();
        mark = true;
      }
    }
  }
  if (mark) {
    // Partitions checkpoint as tasks finish computing them; no extra
    // recomputation is spawned.
    MarkRdd(rdd, /*enqueue_writes=*/false);
  }
}

void FaultToleranceManager::OnRddMaterialized(const RddPtr& rdd) {
  if (config_.policy == CheckpointPolicyKind::kNone ||
      config_.policy == CheckpointPolicyKind::kSystemsLevel) {
    return;
  }
  MutexLock lock(&mutex_);
  PruneAncestorsLocked(rdd);
  frontier_[rdd->id()] = rdd;
  if (rdd->deps().empty() && rdd->should_cache()) {
    cached_sources_[rdd->id()] = rdd;
  }
}

void FaultToleranceManager::OnCheckpointWritten(const RddPtr& rdd, int partition,
                                                uint64_t bytes) {
  RddPtr completed;
  WallTime started{};
  bool recovered = false;
  {
    MutexLock lock(&mutex_);
    partitions_written_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
    // Any successful write proves the store is taking data again.
    consecutive_write_failures_ = 0;
    if (degraded_) {
      degraded_ = false;
      degraded_recovered_.fetch_add(1, std::memory_order_relaxed);
      recovered = true;
    }
    auto it = pending_.find(rdd->id());
    if (it != pending_.end()) {
      it->second.remaining.erase(partition);  // idempotent under racing writers
      it->second.last_progress = WallClock::now();
      if (it->second.remaining.empty()) {
        completed = it->second.rdd;
        started = it->second.started;
        pending_.erase(it);
      }
    }
  }
  if (recovered) {
    FLINT_ILOG() << "checkpoint write succeeded: leaving degraded mode";
  }
  if (completed == nullptr) {
    return;
  }
  // Every partition is durable; commit the manifest (written last, after
  // re-verifying each partition's size and checksum against the store). Only
  // a landed manifest makes the checkpoint visible to recovery.
  Status st = ctx_->CommitCheckpointManifest(completed);
  if (!st.ok()) {
    FLINT_WLOG() << "manifest commit failed for rdd " << completed->id() << ": " << st.ToString();
    ctx_->QuarantineCheckpoint(completed, "manifest commit failed: " + st.ToString());
    return;
  }
  // Measure effective delta for this round, retry and commit time included —
  // a slow store genuinely raises the cost of a checkpoint, and tau should
  // stretch accordingly.
  const double measured = WallDuration(WallClock::now() - started).count();
  double delta_ewma = 0.0;
  double tau = 0.0;
  {
    MutexLock lock(&mutex_);
    delta_seconds_ = kDeltaEwmaAlpha * measured + (1.0 - kDeltaEwmaAlpha) * delta_seconds_;
    rdds_checkpointed_.fetch_add(1, std::memory_order_relaxed);
    delta_ewma = delta_seconds_;
    tau = TauSecondsLocked();
  }
  // The metric is always on (checkpoint completion is cold); the trace
  // instant is a no-op unless tracing is enabled.
  delta_samples_.Observe(measured);
  Tracer::Global().RecordInstant("checkpoint", "checkpoint",
                                 {{"rdd", static_cast<double>(completed->id())},
                                  {"delta_sample_s", measured},
                                  {"delta_ewma_s", delta_ewma},
                                  {"tau_s", tau}});
  completed->SetCheckpointSaved();
  FLINT_ILOG() << "checkpoint saved: rdd " << completed->id() << " (manifest committed)";
  thread_cv_.NotifyAll();  // tau may have changed with delta
  GarbageCollectAncestors(completed);
}

void FaultToleranceManager::OnCheckpointWriteFailed(const RddPtr& rdd, int partition,
                                                    const Status& status) {
  (void)partition;
  bool entered = false;
  {
    MutexLock lock(&mutex_);
    writes_failed_.fetch_add(1, std::memory_order_relaxed);
    ++consecutive_write_failures_;
    auto it = pending_.find(rdd->id());
    if (it != pending_.end()) {
      // A failure is still progress in the sweep's sense: the writer is
      // alive, the store is not. Re-enqueueing now would burn retry budget
      // against a store that already rejected a full backoff cycle.
      it->second.last_progress = WallClock::now();
    }
    if (!degraded_ && config_.degraded_after_failures > 0 &&
        consecutive_write_failures_ >= config_.degraded_after_failures) {
      degraded_ = true;
      degraded_entered_.fetch_add(1, std::memory_order_relaxed);
      entered = true;
    }
  }
  if (entered) {
    FLINT_WLOG() << "entering degraded mode after " << config_.degraded_after_failures
                 << " consecutive abandoned writes (last: " << status.ToString()
                 << "); checkpoint signals suspended";
  }
}

void FaultToleranceManager::SweepPendingNow() {
  struct Requeue {
    RddPtr rdd;
    std::vector<int> partitions;
  };
  std::vector<Requeue> requeue;
  std::vector<RddPtr> expired;
  const WallTime now = WallClock::now();
  {
    MutexLock lock(&mutex_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      PendingCheckpoint& p = it->second;
      const double quiet_s = WallDuration(now - p.last_progress).count();
      if (p.remaining.empty() || quiet_s < config_.pending_retry_seconds) {
        ++it;
        continue;
      }
      if (p.retries >= config_.pending_max_retries) {
        pending_expired_.fetch_add(1, std::memory_order_relaxed);
        expired.push_back(p.rdd);
        it = pending_.erase(it);
        continue;
      }
      ++p.retries;
      pending_requeued_.fetch_add(1, std::memory_order_relaxed);
      p.last_progress = now;
      requeue.push_back(Requeue{p.rdd, {p.remaining.begin(), p.remaining.end()}});
      ++it;
    }
  }
  for (const Requeue& r : requeue) {
    FLINT_WLOG() << "checkpoint stalled: re-enqueueing " << r.partitions.size()
                 << " partition(s) of rdd " << r.rdd->id();
    for (int part : r.partitions) {
      Status st = ctx_->EnqueueCheckpointWrite(r.rdd, part);
      if (!st.ok()) {
        FLINT_WLOG() << "checkpoint re-enqueue failed: " << st.ToString();
      }
    }
  }
  for (const RddPtr& rdd : expired) {
    ctx_->QuarantineCheckpoint(rdd, "pending checkpoint made no progress after " +
                                        std::to_string(config_.pending_max_retries) +
                                        " re-enqueues");
  }
}

bool FaultToleranceManager::ProbeStore() {
  DfsObject obj;
  obj.size_bytes = 1;
  obj.data = std::shared_ptr<const void>(
      new uint8_t(0), [](const void* p) { delete static_cast<const uint8_t*>(p); });
  return ctx_->dfs().Put("ckpt/.probe", std::move(obj)).ok();
}

bool FaultToleranceManager::degraded() const {
  ReaderMutexLock lock(&mutex_);
  return degraded_;
}

void FaultToleranceManager::GarbageCollectAncestors(const RddPtr& rdd) {
  // Checkpointing an RDD truncates its lineage; ancestor checkpoints become
  // unreachable and are deleted (Sec 4, "Checkpoint Garbage Collection").
  std::deque<const Rdd*> queue;
  queue.push_back(rdd.get());
  std::unordered_set<int> visited;
  uint64_t deleted = 0;
  while (!queue.empty()) {
    const Rdd* cur = queue.front();
    queue.pop_front();
    for (const auto& dep : cur->deps()) {
      if (dep.parent == nullptr || !visited.insert(dep.parent->id()).second) {
        continue;
      }
      // Cached RDDs are long-lived by programmer intent (e.g. PageRank's
      // adjacency lists feed every iteration); their checkpoints stay until
      // the cache hint is dropped. Everything else below a newer checkpoint
      // is unreachable.
      if (dep.parent->checkpoint_state() == CheckpointState::kSaved &&
          !dep.parent->should_cache()) {
        ctx_->dfs().DeletePrefix(dep.parent->CheckpointDir());
        ++deleted;
      }
      queue.push_back(dep.parent.get());
    }
  }
  gc_deleted_rdds_.fetch_add(deleted, std::memory_order_relaxed);
}

void FaultToleranceManager::OnNodeWarning(const NodeInfo& node) {
  // The warning path belongs to the node manager (market re-selection); the
  // FT manager just surfaces its current estimates via the getters.
  FLINT_ILOG() << "revocation warning for node " << node.node_id << " (delta="
               << CurrentDeltaSeconds() << "s tau=" << CurrentTauSeconds() << "s)";
}

FaultToleranceManager::Stats FaultToleranceManager::GetStats() const {
  auto load = [](const std::atomic<uint64_t>& cell) {
    return cell.load(std::memory_order_relaxed);
  };
  Stats stats;
  stats.rdds_checkpointed = load(rdds_checkpointed_);
  stats.partitions_written = load(partitions_written_);
  stats.bytes_written = load(bytes_written_);
  stats.gc_deleted_rdds = load(gc_deleted_rdds_);
  stats.signals_fired = load(signals_fired_);
  stats.signals_expired = load(signals_expired_);
  stats.writes_failed = load(writes_failed_);
  stats.pending_requeued = load(pending_requeued_);
  stats.pending_expired = load(pending_expired_);
  stats.signals_suspended = load(signals_suspended_);
  stats.degraded_entered = load(degraded_entered_);
  stats.degraded_recovered = load(degraded_recovered_);
  return stats;
}

}  // namespace flint
