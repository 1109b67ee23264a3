// Flint's fault-tolerance manager (paper Sec 3.1.1, 4): subscribes to engine
// events, tracks the frontier of the lineage graph, signals a checkpoint
// every tau = sqrt(2*delta*MTTF), marks frontier RDDs, drives asynchronous
// partition-level checkpoint writes, maintains the dynamic delta estimate,
// boosts shuffle RDD checkpoint frequency to tau/#map-partitions, and
// garbage-collects checkpoints made unreachable by younger ones.
//
// It also implements the kFixedInterval ablation and the kSystemsLevel
// baseline (persist the entire RDD cache every interval), and the kNone
// baseline (do nothing), selected by CheckpointConfig::policy.

#ifndef SRC_CHECKPOINT_FT_MANAGER_H_
#define SRC_CHECKPOINT_FT_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/checkpoint/checkpoint_policy.h"
#include "src/cluster/time_config.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"
#include "src/engine/context.h"
#include "src/engine/observer.h"
#include "src/obs/metrics.h"

namespace flint {

struct CheckpointConfig {
  CheckpointPolicyKind policy = CheckpointPolicyKind::kFlint;
  // Aggregate cluster MTTF in model hours. Updated by the node manager when
  // markets change (SetMttf); this initial value seeds tau.
  double mttf_hours = 100.0;
  TimeConfig time;
  // Conservative initial delta before any write has been measured: assume the
  // whole cluster memory must be written (Sec 3.1.2). Expressed directly in
  // engine seconds; refined online by an EWMA of measured round times.
  double initial_delta_seconds = 0.25;
  // kFixedInterval ablation.
  double fixed_interval_seconds = 2.0;
  bool shuffle_boost = true;
  // A fired checkpoint signal is only valid for this fraction of the tau in
  // effect when it fired: if no RDD is generated within that window the
  // signal expires instead of marking some much-later, unrelated RDD.
  double signal_expiry_factor = 1.0;
  // kSystemsLevel snapshots at tau / this divisor, matching the effective
  // frequency of Flint's shuffle-boosted checkpoints (the paper compares the
  // two approaches "using the same checkpointing frequency").
  int sys_frequency_divisor = 20;
  // Degraded mode: after this many consecutive abandoned checkpoint writes
  // (each already retried with backoff by the engine) the manager stops
  // signalling new checkpoints and instead probes the store with a 1-byte
  // write each round, resuming once a probe or any real write succeeds.
  // <= 0 disables degraded mode.
  int degraded_after_failures = 3;
  // Pending sweep: a marked RDD whose asynchronous writes have made no
  // progress (no completion and no failure report) for this long is
  // re-enqueued — its writer likely died with a revoked node — up to
  // pending_max_retries times, after which the partial checkpoint is
  // quarantined and the mark dropped.
  double pending_retry_seconds = 0.5;
  int pending_max_retries = 2;
};

class FaultToleranceManager : public EngineObserver {
 public:
  FaultToleranceManager(FlintContext* ctx, CheckpointConfig config);
  ~FaultToleranceManager() override;

  FaultToleranceManager(const FaultToleranceManager&) = delete;
  FaultToleranceManager& operator=(const FaultToleranceManager&) = delete;

  // Starts the periodic checkpoint signal thread (no-op for kNone).
  void Start();
  // Stops the thread; pending async writes still complete via the engine.
  void Stop();

  // Node manager pushes MTTF updates as the market mix changes.
  void SetMttf(double mttf_hours);
  double mttf_hours() const;

  // Current adaptive quantities (engine seconds).
  double CurrentDeltaSeconds() const;
  double CurrentTauSeconds() const;

  // Explicitly checkpoints one RDD now (all partitions, asynchronously).
  // Also used by tests and by the interactive layer for eager persistence.
  void CheckpointRddNow(const RddPtr& rdd);

  // Fires one checkpoint round: sweeps stalled pending checkpoints, probes
  // the store when degraded, then marks current frontier RDDs (Flint/fixed)
  // or snapshots the whole cache (systems-level). The signal thread calls
  // this every tau; public so tests can drive rounds deterministically.
  void FireCheckpointRound();

  // Re-enqueues writes for pending checkpoints that have stalled (writer died
  // without reporting success or failure) and quarantines entries that
  // exhausted pending_max_retries. Runs at the start of every signal round;
  // public so tests can drive the sweep deterministically.
  void SweepPendingNow();

  // True while checkpoint signalling is suspended because the DFS keeps
  // rejecting writes (see CheckpointConfig::degraded_after_failures).
  bool degraded() const;

  struct Stats {
    uint64_t rdds_checkpointed = 0;
    uint64_t partitions_written = 0;
    uint64_t bytes_written = 0;
    uint64_t gc_deleted_rdds = 0;
    uint64_t signals_fired = 0;
    // Signals that aged out before any RDD consumed them (see
    // CheckpointConfig::signal_expiry_factor).
    uint64_t signals_expired = 0;
    // Checkpoint partition writes abandoned after the engine exhausted its
    // retry budget.
    uint64_t writes_failed = 0;
    // Pending-sweep outcomes: stalled entries re-enqueued / given up on.
    uint64_t pending_requeued = 0;
    uint64_t pending_expired = 0;
    // Signal rounds skipped while degraded (store failing probes).
    uint64_t signals_suspended = 0;
    uint64_t degraded_entered = 0;
    uint64_t degraded_recovered = 0;
  };
  Stats GetStats() const;

  // EngineObserver:
  void OnRddCreated(const RddPtr& rdd) override;
  void OnRddMaterialized(const RddPtr& rdd) override;
  void OnCheckpointWritten(const RddPtr& rdd, int partition, uint64_t bytes) override;
  void OnCheckpointWriteFailed(const RddPtr& rdd, int partition, const Status& status) override;
  void OnNodeWarning(const NodeInfo& node) override;

 private:
  struct PendingCheckpoint {
    RddPtr rdd;
    std::unordered_set<int> remaining;  // partitions not yet durably written
    WallTime started;
    // Last time any write for this RDD completed or failed; the sweep
    // re-enqueues entries quiet for longer than pending_retry_seconds.
    WallTime last_progress;
    int retries = 0;
  };

  void SignalLoop();
  // Marks `rdd` for checkpointing and tracks completion. With enqueue_writes,
  // writes are scheduled immediately (from cache or by recomputation);
  // otherwise partitions are written as tasks finish computing them.
  void MarkRdd(const RddPtr& rdd, bool enqueue_writes);
  void SystemsLevelSnapshot();
  // 1-byte write through the normal DFS path (fault hooks included); used to
  // cheaply test whether the store has healed while degraded.
  bool ProbeStore();
  // Removes ancestors of `rdd` from the frontier set.
  void PruneAncestorsLocked(const RddPtr& rdd) REQUIRES(mutex_);
  void GarbageCollectAncestors(const RddPtr& rdd);
  double TauSecondsLocked() const REQUIRES_SHARED(mutex_);

  FlintContext* ctx_;
  CheckpointConfig config_;

  // Lock order: thread_mutex_ before mutex_ (SignalLoop holds thread_mutex_
  // while reading tau). Never acquire thread_mutex_ while holding mutex_.
  mutable Mutex mutex_{"FaultToleranceManager::mutex_"};
  double mttf_hours_ GUARDED_BY(mutex_);
  double delta_seconds_ GUARDED_BY(mutex_);
  // Frontier: materialized RDDs with no materialized descendant.
  std::unordered_map<int, RddPtr> frontier_ GUARDED_BY(mutex_);
  // Cached source RDDs (no dependencies): the managed service persists them
  // into the DFS on the first signal, bounding origin re-reads after large
  // revocations (the paper's HDFS holds the input dataset durably).
  std::unordered_map<int, RddPtr> cached_sources_ GUARDED_BY(mutex_);
  std::unordered_map<int, PendingCheckpoint> pending_ GUARDED_BY(mutex_);  // keyed by rdd id
  // Set by the periodic signal; the next RDD generated at the frontier of
  // its lineage graph is marked for checkpointing (paper Sec 3.1.1). The
  // signal expires signal_expiry_seconds_ after signal_fired_at_ so a quiet
  // interval cannot bank a stale mark for a far-future RDD.
  bool signal_pending_ GUARDED_BY(mutex_) = false;
  WallTime signal_fired_at_ GUARDED_BY(mutex_){};
  double signal_expiry_seconds_ GUARDED_BY(mutex_) = 0.0;
  // Degraded mode state (see CheckpointConfig::degraded_after_failures).
  bool degraded_ GUARDED_BY(mutex_) = false;
  int consecutive_write_failures_ GUARDED_BY(mutex_) = 0;
  WallTime last_shuffle_checkpoint_ GUARDED_BY(mutex_);
  uint64_t sys_epoch_ GUARDED_BY(mutex_) = 0;

  // Declared after the state its gauges read (delta, tau, MTTF, degraded).
  MetricSet metrics_;
  // The cells GetStats() reads; see Stats for what each counts.
  std::atomic<uint64_t>& rdds_checkpointed_ = metrics_.AddCounter("flint_ft_rdds_checkpointed");
  std::atomic<uint64_t>& partitions_written_ =
      metrics_.AddCounter("flint_ft_partitions_written");
  std::atomic<uint64_t>& bytes_written_ = metrics_.AddCounter("flint_ft_bytes_written");
  std::atomic<uint64_t>& gc_deleted_rdds_ = metrics_.AddCounter("flint_ft_gc_deleted_rdds");
  std::atomic<uint64_t>& signals_fired_ = metrics_.AddCounter("flint_ft_signals_fired");
  std::atomic<uint64_t>& signals_expired_ = metrics_.AddCounter("flint_ft_signals_expired");
  std::atomic<uint64_t>& writes_failed_ = metrics_.AddCounter("flint_ft_writes_failed");
  std::atomic<uint64_t>& pending_requeued_ = metrics_.AddCounter("flint_ft_pending_requeued");
  std::atomic<uint64_t>& pending_expired_ = metrics_.AddCounter("flint_ft_pending_expired");
  std::atomic<uint64_t>& signals_suspended_ = metrics_.AddCounter("flint_ft_signals_suspended");
  std::atomic<uint64_t>& degraded_entered_ = metrics_.AddCounter("flint_ft_degraded_entered");
  std::atomic<uint64_t>& degraded_recovered_ = metrics_.AddCounter("flint_ft_degraded_recovered");
  // Each completed round's measured delta sample.
  Histogram& delta_samples_ = metrics_.AddHistogram("flint_ft_delta_sample_seconds",
                                                    Histogram::DefaultLatencyBounds());

  Mutex thread_mutex_{"FaultToleranceManager::thread_mutex_"};
  CondVar thread_cv_;
  bool running_ GUARDED_BY(thread_mutex_) = false;
  bool stop_requested_ GUARDED_BY(thread_mutex_) = false;
  std::thread signal_thread_;
};

}  // namespace flint

#endif  // SRC_CHECKPOINT_FT_MANAGER_H_
