// FlintContext: the engine's driver-side hub. It owns per-node execution
// state (block manager + executor pool), the cluster-wide block registry, the
// shuffle manager, RDD/shuffle registries, counters, and the DAG scheduler.
// It subscribes to the ClusterManager for node lifecycle and fans events out
// to registered EngineObservers (fault-tolerance manager, node manager).

#ifndef SRC_ENGINE_CONTEXT_H_
#define SRC_ENGINE_CONTEXT_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cluster/cluster_manager.h"
#include "src/common/latency.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"
#include "src/dfs/dfs.h"
#include "src/dfs/manifest.h"
#include "src/dfs/retry.h"
#include "src/engine/block_manager.h"
#include "src/engine/observer.h"
#include "src/engine/rdd.h"
#include "src/engine/shuffle_manager.h"
#include "src/obs/metrics.h"

namespace flint {

class TaskContext;
class DagScheduler;

// Straggler mitigation (DESIGN.md "Straggler mitigation"). The scheduler
// tracks per-stage task-runtime quantiles; once `quorum` attempts of a stage
// have finished, every outstanding attempt gets a deadline of
// DeadlineSeconds(stage P50). An attempt past its deadline gets a
// speculative duplicate on a different node; first success wins and the
// loser is cancelled cooperatively. Node health judges every attempt by the
// same deadline, with speculation on or off. Failed attempts are
// retried with exponential backoff up to max_attempts_per_task before the
// stage surfaces the last error, and the stage watchdog bounds the whole
// loop so a hung cluster turns into a clean kDeadlineExceeded.
struct SpeculationConfig {
  bool enabled = true;
  // Completed attempts of the stage required before deadlines arm (the
  // quantile estimate is noise below this).
  int quorum = 3;
  double spec_multiplier = 3.0;     // deadline = spec_multiplier x stage P50
  double min_deadline_seconds = 0.2;  // deadline floor for very short stages
  // Attempts per task slot (including the first) before the stage gives up
  // and surfaces the last failure. Revocation-killed attempts do not count.
  int max_attempts_per_task = 4;
  double retry_backoff_seconds = 0.05;  // doubles per prior failure
  // Hard bound on one stage's wall-clock time, watchdog for hung tasks that
  // speculation cannot save (e.g. every replica hangs). <= 0 disables.
  double stage_watchdog_seconds = 120.0;

  // The deadline of an attempt in a stage whose service-time P50 is
  // `p50_seconds`.
  double DeadlineSeconds(double p50_seconds) const {
    return std::max(min_deadline_seconds, spec_multiplier * p50_seconds);
  }
};

struct EngineConfig {
  BlockManagerConfig block_defaults;
  // Cross-node cache reads pay bytes/bandwidth (cluster network).
  double remote_fetch_bandwidth_bytes_per_s = 512.0 * kMiB;
  // Recomputing a source partition re-reads origin data (the paper's S3
  // re-fetch + re-partition + deserialize path, Sec 5.4). Source RDD computes
  // pay bytes/bandwidth on top of generation compute.
  double origin_read_bandwidth_bytes_per_s = 48.0 * kMiB;
  // The one latency switch (src/common/latency.h): off, every modelled I/O
  // wait — origin and remote cache reads, spill, DFS checkpoint I/O, shuffle
  // fetch — takes no time. Injected faults and retry backoff still wait.
  bool model_latency = true;
  // Backoff/deadline applied to every checkpoint Put (partition objects and
  // manifests) and to verified restore reads. Transient DFS failures retry
  // inside this budget; exhausting it abandons the write (the FT manager's
  // degraded-mode trigger) or falls the restore back to lineage.
  DfsRetryPolicy checkpoint_retry;
  SpeculationConfig speculation;
  // --- network plane (DESIGN.md "Network plane") ---
  // Default per-node NIC capacity. Every NodeState starts here; tests model
  // heterogeneous fleets via FlintContext::SetNodeLinkBandwidth. Shuffle
  // pulls charge bytes / (capacity / slow_factor) against the PRODUCING
  // node's link when model_latency is on, so a congested NIC inflates
  // reduce-side service times the same way slow compute does.
  double default_link_bandwidth_bytes_per_s = 512.0 * kMiB;
  // Per-fetch timeout = max(fetch_timeout_min_seconds,
  // fetch_timeout_multiplier x current stage P95 service time). No stage
  // quantile yet (or multiplier <= 0) means no timeout. A pull past the
  // timeout is abandoned mid-transfer, classified link-slow (feeding the
  // producer's health EWMA), and retried with exponential backoff; an
  // exhausted retry budget drops the producer's outputs and falls back to
  // lineage recomputation on a healthy node.
  double fetch_timeout_multiplier = 4.0;
  double fetch_timeout_min_seconds = 0.05;
  int fetch_retry_limit = 2;                  // retries after the first timed-out pull
  double fetch_retry_backoff_seconds = 0.01;  // doubles per retry
};

// Monotonic counters for experiment reporting, cumulative since context
// creation. Each field is a cell of the context's MetricSet, declared next to
// the series it exports.
struct EngineCounters {
  EngineCounters(MetricSet& set, LatencyModel& model) : metrics(set), latency(model) {}

  MetricSet& metrics;
  LatencyModel& latency;

  std::atomic<uint64_t>& tasks_run = metrics.AddCounter("flint_engine_tasks_run");
  std::atomic<uint64_t>& task_failures = metrics.AddCounter("flint_engine_task_failures");
  std::atomic<uint64_t>& partitions_computed =
      metrics.AddCounter("flint_engine_partitions_computed");
  // Partitions computed more than once.
  std::atomic<uint64_t>& partitions_recomputed =
      metrics.AddCounter("flint_engine_partitions_recomputed");
  std::atomic<uint64_t>& cache_hits = metrics.AddCounter("flint_engine_cache_hits");
  std::atomic<uint64_t>& cache_misses = metrics.AddCounter("flint_engine_cache_misses");
  std::atomic<uint64_t>& checkpoint_writes = metrics.AddCounter("flint_engine_checkpoint_writes");
  std::atomic<uint64_t>& checkpoint_bytes = metrics.AddCounter("flint_engine_checkpoint_bytes");
  std::atomic<uint64_t>& checkpoint_reads = metrics.AddCounter("flint_engine_checkpoint_reads");
  // Storage-fault accounting (checkpoint path): checkpoint Put attempts
  // beyond the first, and Puts that exhausted the retry budget.
  std::atomic<uint64_t>& write_retries = metrics.AddCounter("flint_dfs_write_retries");
  std::atomic<uint64_t>& writes_abandoned = metrics.AddCounter("flint_dfs_writes_abandoned");
  // Retries, and exhausted retry budgets, over every checkpoint Put and
  // restore Get (FlintContext::CountCheckpointRetries).
  std::atomic<uint64_t>& dfs_retry_attempts = metrics.AddCounter("flint_dfs_retry_attempts");
  std::atomic<uint64_t>& dfs_retry_exhausted = metrics.AddCounter("flint_dfs_retry_exhausted");
  // Restores demoted to lineage recomputation, and corrupt or torn
  // checkpoint dirs deleted.
  std::atomic<uint64_t>& restores_fallen_back =
      metrics.AddCounter("flint_engine_restores_fallen_back");
  std::atomic<uint64_t>& checkpoints_quarantined =
      metrics.AddCounter("flint_engine_checkpoints_quarantined");
  std::atomic<int64_t>& compute_nanos = metrics.AddNanos("flint_engine_compute_seconds");
  // Scheduler stalls with zero live nodes.
  std::atomic<int64_t>& acquisition_wait_nanos =
      metrics.AddNanos("flint_engine_acquisition_wait_seconds");
  // Dispatch rounds across all stage loops, and rounds where every
  // submission was rejected.
  std::atomic<uint64_t>& stage_rounds = metrics.AddCounter("flint_engine_stage_rounds");
  std::atomic<uint64_t>& stage_parks = metrics.AddCounter("flint_engine_stage_parks");
  // Chain accounting (TaskContext::RunChain): narrow chains that streamed
  // through at least one intermediate, and RDD partitions streamed through
  // without being built (a narrow chain's intermediates, every operator of
  // a shuffle map side that streams into its buckets).
  std::atomic<uint64_t>& fused_chains = metrics.AddCounter("flint_fusion_fused_chains");
  std::atomic<uint64_t>& fused_operators_elided =
      metrics.AddCounter("flint_fusion_operators_elided");
  // Shuffle data-plane accounting (wide-stage pipelining, see
  // TaskContext::ComputeShuffleBuckets and the bucket sinks in typed_rdd.h):
  // rows streamed into buckets, rows bucketed after materializing, map tasks
  // that elided their output, and map-side rows absorbed by the combiner.
  std::atomic<uint64_t>& shuffle_rows_bucketed_fused =
      metrics.AddCounter("flint_shuffle_rows_bucketed_fused");
  std::atomic<uint64_t>& shuffle_rows_bucketed_unfused =
      metrics.AddCounter("flint_shuffle_rows_bucketed_unfused");
  std::atomic<uint64_t>& shuffle_fused_bucket_chains =
      metrics.AddCounter("flint_shuffle_fused_bucket_chains");
  std::atomic<uint64_t>& shuffle_combine_hits = metrics.AddCounter("flint_shuffle_combine_hits");
  // Stages whose speculation deadlines armed from the previous stage's
  // carried quantile before reaching in-stage quorum.
  std::atomic<uint64_t>& stage_quantile_seeded =
      metrics.AddCounter("flint_engine_stage_quantile_seeded");
  // Straggler-mitigation accounting (see SpeculationConfig): duplicate
  // attempts launched, duplicates that beat the original, attempts that blew
  // their deadline, failed attempts re-submitted, attempt cancellations
  // issued, and stages aborted by the watchdog.
  std::atomic<uint64_t>& tasks_speculated = metrics.AddCounter("flint_engine_tasks_speculated");
  std::atomic<uint64_t>& speculative_wins = metrics.AddCounter("flint_engine_speculative_wins");
  std::atomic<uint64_t>& task_deadline_misses =
      metrics.AddCounter("flint_engine_task_deadline_misses");
  std::atomic<uint64_t>& task_retries = metrics.AddCounter("flint_engine_task_retries");
  std::atomic<uint64_t>& tasks_cancelled = metrics.AddCounter("flint_engine_tasks_cancelled");
  std::atomic<uint64_t>& stage_watchdog_timeouts =
      metrics.AddCounter("flint_engine_stage_watchdog_timeouts");
  // Executor-queue wait: execution-start stamp minus submission, summed over
  // attempts whose stamp was seen. Deadline clocks exclude this slack.
  std::atomic<int64_t>& task_queue_wait_nanos =
      metrics.AddNanos("flint_engine_task_queue_wait_seconds");
  // Network-plane accounting (the hardened shuffle-fetch path, see
  // TaskContext::FetchShuffle): per-producer pulls charged, bytes pulled over
  // node links, pulls that blew the fetch timeout, timed-out pulls retried
  // with backoff, and fetches that fell back to recompute.
  std::atomic<uint64_t>& net_fetches = metrics.AddCounter("flint_net_fetches");
  std::atomic<uint64_t>& net_fetch_bytes = metrics.AddCounter("flint_net_fetch_bytes");
  std::atomic<uint64_t>& net_fetches_slow = metrics.AddCounter("flint_net_fetches_slow");
  std::atomic<uint64_t>& net_fetch_retries = metrics.AddCounter("flint_net_fetch_retries");
  std::atomic<uint64_t>& net_fetch_recomputes = metrics.AddCounter("flint_net_fetch_recomputes");
  // Modelled transfer time charged: the latency model's kShuffleFetch account.
  std::atomic<int64_t>& net_fetch_wait_nanos =
      metrics.AddNanos("flint_net_fetch_wait_seconds", latency.Account(Layer::kShuffleFetch));
  // Modelled wait of each producer pull. A pull takes microseconds to
  // milliseconds, below the default latency buckets' 1 ms floor; 10 us
  // doubling through ~84 s resolves it.
  Histogram& net_fetch_seconds =
      metrics.AddHistogram("flint_net_fetch_seconds", Histogram::DoublingBounds(1e-5, 100.0));
  // Cache-locality accounting (see LineagePreferredNode and
  // FlintContext::LookupBlock): picks won by the preferred node, cached
  // blocks read off another node, and the bytes those reads pulled.
  std::atomic<uint64_t>& tasks_placed_local = metrics.AddCounter("flint_engine_tasks_placed_local");
  std::atomic<uint64_t>& remote_cache_reads = metrics.AddCounter("flint_engine_remote_cache_reads");
  std::atomic<uint64_t>& remote_cache_read_bytes =
      metrics.AddCounter("flint_engine_remote_cache_read_bytes");
  // Remote cache reads by a scheduled task that moved the block to the
  // reader (FlintContext::LookupBlock with `take`).
  std::atomic<uint64_t>& cache_blocks_moved = metrics.AddCounter("flint_engine_cache_blocks_moved");
};

// Engine-side state of one node. Retired (revoked) nodes are kept until
// context destruction so in-flight tasks can finish failing gracefully.
struct NodeState {
  NodeInfo info;
  std::unique_ptr<BlockManager> blocks;
  std::unique_ptr<ThreadPool> pool;
  std::atomic<bool> revoked{false};
  // Set on the revocation warning: the node keeps executing (and serving its
  // cache) until revocation, but its pool stops accepting new tasks.
  std::atomic<bool> draining{false};
  // Set by the node-health scorer: the node is alive and keeps its cache,
  // but the scheduler stops placing new attempts on it until the score
  // recovers. Unlike draining, quarantine is reversible.
  std::atomic<bool> quarantined{false};
  // Round-robin credit for PickNode. Only the scheduler thread (serialized
  // by job_mutex_) mutates it; atomic so readers (metrics, tests) need no
  // lock.
  std::atomic<int64_t> swrr_credit{0};
  // Dispatches routed here by PickNode, locality picks included. Exposed
  // for placement tests and telemetry.
  std::atomic<uint64_t> tasks_picked{0};
  // --- network plane ---
  // Modelled NIC capacity (bytes/s). Initialized from
  // EngineConfig::default_link_bandwidth_bytes_per_s; tests override per
  // node via SetNodeLinkBandwidth to model heterogeneous fleets.
  std::atomic<double> link_bandwidth_bytes_per_s{512.0 * 1024.0 * 1024.0};

  // Accepts new tasks: not revoked, not draining, not quarantined.
  bool Schedulable() const {
    return !revoked.load(std::memory_order_acquire) &&
           !draining.load(std::memory_order_acquire) &&
           !quarantined.load(std::memory_order_acquire);
  }
};

class FlintContext : public ClusterListener {
 public:
  FlintContext(ClusterManager* cluster, Dfs* dfs, EngineConfig config);
  ~FlintContext() override;

  FlintContext(const FlintContext&) = delete;
  FlintContext& operator=(const FlintContext&) = delete;

  ClusterManager& cluster() { return *cluster_; }
  Dfs& dfs() { return *dfs_; }
  ShuffleManager& shuffles() { return shuffle_mgr_; }
  const EngineConfig& config() const { return config_; }
  EngineCounters& counters() { return counters_; }
  // Every modelled I/O wait of this context, with its per-layer accounts.
  // The Dfs and every node's BlockManager charge through it too.
  LatencyModel& latency() { return latency_; }

  // --- RDD registry ---
  RddPtr CreateRdd(std::string name, int num_partitions, std::vector<Dependency> deps,
                   std::function<Result<PartitionPtr>(int, TaskContext&)> fn);
  int NextShuffleId();
  void RegisterShuffleInfo(const std::shared_ptr<ShuffleInfo>& info);
  std::shared_ptr<ShuffleInfo> LookupShuffle(int shuffle_id) const;
  int NextRddId();

  // --- observers ---
  void AddObserver(EngineObserver* observer);
  void RemoveObserver(EngineObserver* observer);

  // --- job execution ---
  // Computes every partition of `rdd` (running all required shuffle stages),
  // returning them in partition order. Thread-safe; jobs are serialized.
  Result<std::vector<PartitionPtr>> Materialize(const RddPtr& rdd);

  // Computes only the listed partitions of `rdd` (each in range, no
  // duplicates), returning them in the order given. Powers incremental
  // actions like Take that stop before materializing the whole RDD.
  Result<std::vector<PartitionPtr>> MaterializePartitions(const RddPtr& rdd,
                                                          const std::vector<int>& partitions);

  // --- block registry (cluster-wide cache index) ---
  // Looks the block up anywhere in the cluster, the reader's own copy first;
  // charges a remote-fetch delay when served from another node. With `take`
  // (a scheduled task's read), an off-node hit also moves the block to the
  // reader, so the data follows the work: the block is stored on the reader
  // first and only then erased from its source and the source's registry
  // entry, so a concurrent reader always finds one copy. A block moves only
  // between live nodes that are not draining, only toward a reader holding
  // fewer blocks of its RDD than the source (balanced holders never trade
  // blocks), and only when it fits the reader's free cache memory: a move
  // never evicts. Returns nullptr on miss.
  PartitionPtr LookupBlock(const BlockKey& key, NodeId reader, bool take);
  // Stores the block on `node`, updating the registry (including evictions;
  // with `evict` false the block is stored only if it fits without one).
  // Returns whether the node kept it (false: revoked, larger than a shard's
  // budget, or no room without evicting).
  bool StoreBlock(const BlockKey& key, NodeId node, PartitionPtr data, bool evict = true);
  bool BlockAvailable(const BlockKey& key) const;
  // Snapshot of every cached block and one node holding it (for the
  // systems-level checkpointing baseline, which persists the whole cache).
  std::vector<std::pair<BlockKey, NodeId>> BlockRegistrySnapshot() const;
  // Spark's unpersist(): clears the caching hint and drops every cached
  // partition of `rdd` cluster-wide. Future accesses recompute from lineage.
  void UnpersistRdd(const RddPtr& rdd);
  // True if every partition of `rdd` is either cached somewhere or the RDD's
  // checkpoint is saved — i.e. lineage below it need not be computed.
  bool AllPartitionsAvailable(const RddPtr& rdd) const;

  // --- node access for the scheduler / checkpointing ---
  std::vector<std::shared_ptr<NodeState>> LiveNodeStates() const;
  // Live nodes that also accept new tasks (not draining under a revocation
  // warning, not quarantined by the health scorer). The scheduler dispatches
  // only to these.
  std::vector<std::shared_ptr<NodeState>> SchedulableNodeStates() const;
  std::shared_ptr<NodeState> GetNodeState(NodeId id) const;
  // Marks `id` quarantined (excluded from scheduling) or lifts the mark.
  // Refuses to quarantine the last schedulable node — something must keep
  // accepting tasks — and returns whether the change was applied.
  bool SetNodeQuarantined(NodeId id, bool quarantined);
  // Overrides `id`'s modelled NIC capacity (bytes/s). Unknown ids are
  // ignored. Tests use this to model heterogeneous fleets.
  void SetNodeLinkBandwidth(NodeId id, double bytes_per_s);
  // Blocks until at least one live node accepts new tasks or `deadline`
  // passes (kDeadlineExceeded); accumulates acquisition wait.
  Status WaitForLiveNode(WallTime deadline);
  // Blocks until every executor pool (live and retired) is idle. Observers
  // must call this before unregistering so no in-flight task can reach them.
  void DrainExecutors();

  // Asynchronously ensures (rdd, partition) is durably checkpointed: computes
  // the partition if necessary on some executor, writes it to the DFS, and
  // fires OnCheckpointWritten. Used by the fault-tolerance manager.
  Status EnqueueCheckpointWrite(const RddPtr& rdd, int partition);

  // Synchronous variant used on the revocation-warning path.
  Status WriteCheckpointNow(const RddPtr& rdd, int partition, TaskContext& tc);
  // Writes `data` (checksummed, with retry/backoff) and fires
  // OnCheckpointWritten on success or OnCheckpointWriteFailed once the retry
  // budget is exhausted. Racing writers of the same partition are serialized
  // through an in-flight claim: exactly one writer performs the Put, the
  // rest return OK immediately (so bytes_written and the delta estimate see
  // each partition once).
  Status WriteCheckpointData(const RddPtr& rdd, int partition, PartitionPtr data);

  // Atomic-commit step: verifies every partition object recorded for `rdd`
  // against the store (presence, size, checksum) and writes the manifest
  // last, with retry. Only after this succeeds may the RDD be declared
  // kSaved. Fails with kFailedPrecondition if not all partitions were
  // written, kDataLoss if verification finds a mismatch, or the Put error if
  // the manifest cannot land.
  Status CommitCheckpointManifest(const RddPtr& rdd);

  // Deletes `rdd`'s checkpoint directory (bad or partial state), drops the
  // write records, demotes the RDD to kNone, and counts the quarantine. Used
  // when restore finds corruption or a commit/stalled checkpoint is
  // abandoned. Safe to call concurrently with restores: readers see clean
  // NotFound and fall back to lineage.
  void QuarantineCheckpoint(const RddPtr& rdd, const std::string& reason);

  // Verified restore of one partition from a kSaved checkpoint: manifest
  // lookup, checksum/size validation, retry on transient read failures. On
  // any validation failure the checkpoint is demoted (and quarantined if
  // corrupt) and an error returns so the caller recomputes from lineage;
  // restores_fallen_back counts those demotions.
  Result<PartitionPtr> RestoreFromCheckpoint(const RddPtr& rdd, int partition);

  // --- event plumbing (called from TaskContext / scheduler) ---
  void NotifyPartitionComputed(const RddPtr& rdd, int partition, double seconds);
  // Straggler telemetry fan-out to observers (EngineObserver::OnTaskJudged).
  void NotifyTaskJudged(NodeId node, double seconds, bool on_time);
  // Link telemetry fan-out (EngineObserver::OnLinkSample).
  void NotifyLinkSample(NodeId node, double throughput_ratio, bool late);

  // --- stage service-time quantile (published by the stage loop) ---
  // The running stage's live (or carried) P95 service time in seconds; 0
  // until a stage first arms. Fetch timeouts derive from it.
  void PublishStageP95(double p95_seconds) {
    stage_p95_seconds_.store(p95_seconds, std::memory_order_relaxed);
  }
  double StageP95Seconds() const { return stage_p95_seconds_.load(std::memory_order_relaxed); }

  // --- fault-injection probe (src/inject/) ---
  // At most one probe; set before running jobs, clear with nullptr. The
  // probe must outlive every job it observes.
  void SetProbe(EngineProbe* probe) { probe_.store(probe, std::memory_order_release); }
  void FireProbe(EnginePoint point) {
    if (EngineProbe* probe = probe_.load(std::memory_order_acquire)) {
      probe->AtPoint(point);
    }
  }
  // Announces a starting task attempt to the probe and returns its fault
  // directive (benign when no probe is installed).
  TaskFaultDirective FireTaskProbe(const TaskRunInfo& info) {
    if (EngineProbe* probe = probe_.load(std::memory_order_acquire)) {
      return probe->OnTaskRun(info);
    }
    return TaskFaultDirective{};
  }
  // Announces one producer pull of a shuffle fetch to the probe and returns
  // its fault directive (benign when no probe is installed).
  FetchFaultDirective FireFetchProbe(const ShuffleFetchInfo& info) {
    if (EngineProbe* probe = probe_.load(std::memory_order_acquire)) {
      return probe->OnShuffleFetch(info);
    }
    return FetchFaultDirective{};
  }

  // ClusterListener:
  void OnNodeAdded(const NodeInfo& node) override;
  void OnNodeWarning(const NodeInfo& node) override;
  void OnNodeRevoked(const NodeInfo& node) override;

 private:
  friend class DagScheduler;

  std::vector<EngineObserver*> ObserversSnapshot() const;

  // True when some live node accepts new tasks (not revoked, not draining).
  bool HasSchedulableNodeLocked() const REQUIRES(nodes_mutex_);

  // Drops `node` from `key`'s registry entry unless the node holds the
  // block (again) by the time the registry lock is taken.
  void EraseStaleLocation(const BlockKey& key, const NodeState& node);

  // In-flight claim for one checkpoint path; at most one writer holds it.
  bool ClaimCheckpointWrite(const std::string& path);
  void ReleaseCheckpointWrite(const std::string& path);
  bool CheckpointWriteInFlight(const std::string& path) const;
  // Adds one retried checkpoint Put (write) or restore Get to the retry
  // counters.
  void CountCheckpointRetries(const DfsRetryStats& stats, bool write);

  ClusterManager* cluster_;
  Dfs* dfs_;
  EngineConfig config_;
  ShuffleManager shuffle_mgr_;
  LatencyModel latency_{config_.model_latency};
  // Declared after the latency model whose accounts it exports.
  MetricSet metrics_;
  EngineCounters counters_{metrics_, latency_};

  mutable Mutex nodes_mutex_{"FlintContext::nodes_mutex_"};
  CondVar node_added_cv_;
  std::unordered_map<NodeId, std::shared_ptr<NodeState>> nodes_ GUARDED_BY(nodes_mutex_);  // live
  std::vector<std::shared_ptr<NodeState>> retired_ GUARDED_BY(nodes_mutex_);

  mutable Mutex registry_mutex_{"FlintContext::registry_mutex_"};
  std::unordered_map<BlockKey, std::vector<NodeId>, BlockKeyHash> block_locations_
      GUARDED_BY(registry_mutex_);

  mutable Mutex rdd_mutex_{"FlintContext::rdd_mutex_"};
  std::atomic<int> next_rdd_id_{0};
  std::atomic<int> next_shuffle_id_{0};
  std::unordered_map<int, std::weak_ptr<ShuffleInfo>> shuffle_infos_ GUARDED_BY(rdd_mutex_);
  // Partitions computed at least once, per RDD; drives OnRddMaterialized and
  // the recompute counter.
  std::unordered_map<int, std::unordered_map<int, int>> computed_counts_ GUARDED_BY(rdd_mutex_);
  std::unordered_map<int, std::weak_ptr<Rdd>> rdds_ GUARDED_BY(rdd_mutex_);
  std::unordered_set<int> materialized_fired_ GUARDED_BY(rdd_mutex_);

  mutable Mutex observers_mutex_{"FlintContext::observers_mutex_"};
  std::vector<EngineObserver*> observers_ GUARDED_BY(observers_mutex_);

  Mutex job_mutex_{"FlintContext::job_mutex_"};  // one job at a time
  std::unique_ptr<DagScheduler> scheduler_;
  std::atomic<int> round_robin_{0};
  std::atomic<EngineProbe*> probe_{nullptr};

  // Running stage's P95 service time (seconds); see PublishStageP95.
  // Written by the scheduler thread, read by reduce-side tasks deriving
  // fetch timeouts.
  std::atomic<double> stage_p95_seconds_{0.0};

  // Checkpoint write tracking: in-flight path claims (prevents double
  // writes) and the per-RDD metadata of durably written partitions, consumed
  // by CommitCheckpointManifest.
  mutable Mutex ckpt_mutex_{"FlintContext::ckpt_mutex_"};
  std::unordered_set<std::string> ckpt_inflight_ GUARDED_BY(ckpt_mutex_);
  std::unordered_map<int, std::unordered_map<int, CheckpointPartitionMeta>> ckpt_written_
      GUARDED_BY(ckpt_mutex_);
};

}  // namespace flint

#endif  // SRC_ENGINE_CONTEXT_H_
