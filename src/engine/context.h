// FlintContext: the engine's driver-side hub. It owns per-node execution
// state (block manager + executor pool), the cluster-wide block registry, the
// shuffle manager, RDD/shuffle registries, counters, and the DAG scheduler.
// It subscribes to the ClusterManager for node lifecycle and fans events out
// to registered EngineObservers (fault-tolerance manager, node manager).

#ifndef SRC_ENGINE_CONTEXT_H_
#define SRC_ENGINE_CONTEXT_H_

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
// max(min_deadline_seconds, spec_multiplier x stage P50). An attempt past
// its deadline gets a speculative duplicate on a different node; first
// success wins and the loser is cancelled cooperatively. Failed attempts are
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
  // Seed a new stage's service-time estimate from the previous stage's
  // distribution: deadlines arm immediately (using the carried P50) instead
  // of waiting for `quorum` in-stage completions, so short stages — fewer
  // tasks than the quorum — still get straggler protection. The live
  // in-stage estimate takes over once it reaches quorum.
  bool seed_from_previous_stage = true;
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
  // Narrow-chain operator fusion (see fusion.h / DESIGN.md "Execution hot
  // path"): chains of streaming one-to-one operators execute as one task
  // without materializing intermediate partitions. Off switches every task
  // back to per-level Compute, which benchmarks and differential tests use.
  bool operator_fusion = true;
  // Wide-stage pipelining (DESIGN.md "Execution hot path"): shuffle map
  // tasks stream their narrow chain straight into the bucket sinks, eliding
  // the map-side partition. Requires operator_fusion; off falls back to
  // materialize-then-bucket (same sinks, bit-identical buckets).
  bool shuffle_fusion = true;
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
  // EWMA weight for a node's observed fetch throughput (link_throughput_ewma).
  double link_ewma_alpha = 0.3;
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

// Monotonic counters for experiment reporting. All fields are cumulative
// since context creation.
struct EngineCounters {
  explicit EngineCounters(LatencyModel& latency)
      : net_fetch_wait_nanos(latency.Account(Layer::kShuffleFetch)) {}

  std::atomic<uint64_t> tasks_run{0};
  std::atomic<uint64_t> task_failures{0};
  std::atomic<uint64_t> partitions_computed{0};
  std::atomic<uint64_t> partitions_recomputed{0};  // computed more than once
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> checkpoint_writes{0};
  std::atomic<uint64_t> checkpoint_bytes{0};
  std::atomic<uint64_t> checkpoint_reads{0};
  // Storage-fault accounting (checkpoint path):
  std::atomic<uint64_t> write_retries{0};     // checkpoint Put attempts beyond the first
  std::atomic<uint64_t> writes_abandoned{0};  // checkpoint Puts that exhausted the retry budget
  std::atomic<uint64_t> restores_fallen_back{0};  // restores demoted to lineage recomputation
  std::atomic<uint64_t> checkpoints_quarantined{0};  // corrupt/torn checkpoint dirs deleted
  std::atomic<int64_t> compute_nanos{0};
  std::atomic<int64_t> acquisition_wait_nanos{0};  // scheduler stalls with zero live nodes
  std::atomic<uint64_t> stage_rounds{0};  // dispatch rounds across all stage loops
  std::atomic<uint64_t> stage_parks{0};   // rounds where every submission was rejected
  // Operator-fusion accounting (narrow-chain streaming, see fusion.h):
  std::atomic<uint64_t> fused_chains{0};             // fused chain executions
  std::atomic<uint64_t> fused_operators_elided{0};   // intermediate partitions not built
  // Shuffle data-plane accounting (wide-stage pipelining, see
  // TaskContext::ComputeShuffleBuckets and the bucket sinks in typed_rdd.h):
  std::atomic<uint64_t> shuffle_rows_bucketed_fused{0};    // rows streamed into buckets
  std::atomic<uint64_t> shuffle_rows_bucketed_unfused{0};  // rows bucketed after materializing
  std::atomic<uint64_t> shuffle_fused_bucket_chains{0};    // map tasks that elided their output
  std::atomic<uint64_t> shuffle_combine_hits{0};   // map-side rows absorbed by the combiner
  // Stages whose speculation deadlines armed from the previous stage's
  // carried quantile before reaching in-stage quorum.
  std::atomic<uint64_t> stage_quantile_seeded{0};
  // Straggler-mitigation accounting (see SpeculationConfig):
  std::atomic<uint64_t> tasks_speculated{0};        // duplicate attempts launched
  std::atomic<uint64_t> speculative_wins{0};        // duplicates that beat the original
  std::atomic<uint64_t> task_deadline_misses{0};    // attempts that blew their deadline
  std::atomic<uint64_t> task_retries{0};            // failed attempts re-submitted
  std::atomic<uint64_t> tasks_cancelled{0};         // attempt cancellations issued
  std::atomic<uint64_t> stage_watchdog_timeouts{0};  // stages aborted by the watchdog
  // Executor-queue wait: execution-start stamp minus submission, summed over
  // attempts whose stamp was seen. Deadline clocks exclude this slack.
  std::atomic<int64_t> task_queue_wait_nanos{0};
  // Network-plane accounting (the hardened shuffle-fetch path, see
  // TaskContext::FetchShuffle):
  std::atomic<uint64_t> net_fetches{0};           // per-producer pulls charged
  std::atomic<uint64_t> net_fetch_bytes{0};       // bytes pulled over node links
  std::atomic<uint64_t> net_fetches_slow{0};      // pulls that blew the fetch timeout
  std::atomic<uint64_t> net_fetch_retries{0};     // timed-out pulls retried with backoff
  std::atomic<uint64_t> net_fetch_recomputes{0};  // fetches that fell back to recompute
  // Modelled transfer time charged: the latency model's kShuffleFetch account.
  std::atomic<int64_t>& net_fetch_wait_nanos;
  // Cache-locality accounting (see LineagePreferredNode and
  // FlintContext::LookupBlock):
  std::atomic<uint64_t> tasks_placed_local{0};        // picks won by the preferred node
  std::atomic<uint64_t> remote_cache_reads{0};        // cached blocks read off another node
  std::atomic<uint64_t> remote_cache_read_bytes{0};   // bytes those reads pulled
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
  // EWMA health score pushed by the NodeManager's scorer (1 = healthy,
  // 0 = failing every attempt). Weights PickNode's smooth weighted
  // round-robin so a degraded-but-unbenched node draws proportionally fewer
  // tasks. Plain store/load; single-writer (the scorer).
  std::atomic<double> health_score{1.0};
  // Smooth-weighted-round-robin credit for PickNode. Only the scheduler
  // thread (serialized by job_mutex_) mutates it; atomic so readers
  // (metrics, tests) need no lock.
  std::atomic<double> swrr_credit{0.0};
  // Dispatches routed here by PickNode, locality picks included. Exposed
  // for placement tests and telemetry.
  std::atomic<uint64_t> tasks_picked{0};
  // --- network plane ---
  // Modelled NIC capacity (bytes/s). Initialized from
  // EngineConfig::default_link_bandwidth_bytes_per_s; tests override per
  // node via SetNodeLinkBandwidth to model heterogeneous fleets.
  std::atomic<double> link_bandwidth_bytes_per_s{512.0 * 1024.0 * 1024.0};
  // EWMA of observed fetch throughput over this node's link (bytes/s); 0
  // until the first pull completes. Folded by reduce-side tasks with a CAS
  // loop, read by telemetry and market costing.
  std::atomic<double> link_throughput_ewma{0.0};
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
  // Looks the block up anywhere in the cluster; charges a remote-fetch delay
  // when served from a node other than `local`. Returns nullptr on miss.
  PartitionPtr LookupBlock(const BlockKey& key, NodeId local);
  // Stores the block on `node`, updating the registry (including evictions).
  void StoreBlock(const BlockKey& key, NodeId node, PartitionPtr data);
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
  // Publishes the health scorer's EWMA score for `id` (clamped to [0, 1])
  // onto its NodeState so placement can weight by it. Unknown ids are
  // ignored (the node raced a revocation).
  void SetNodeHealthScore(NodeId id, double score);
  // Overrides `id`'s modelled NIC capacity (bytes/s). Unknown ids are
  // ignored. Tests use this to model heterogeneous fleets.
  void SetNodeLinkBandwidth(NodeId id, double bytes_per_s);
  // Folds one observed fetch throughput sample (bytes/s) into `node`'s
  // link_throughput_ewma with EngineConfig::link_ewma_alpha.
  void RecordLinkThroughput(NodeId node, double bytes_per_s);
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
  // Straggler telemetry fan-out to observers (node-health scorer).
  void NotifyTaskAttemptFinished(NodeId node, double seconds, double stage_p50_seconds,
                                 bool success);
  void NotifyTaskDeadlineMiss(NodeId node);
  // Link telemetry fan-out: a shuffle pull over `node`'s link was classified
  // (ratio = observed bytes/s over modelled capacity, clamped to [0, 1];
  // slow = the pull blew the fetch timeout). Feeds the health scorer.
  void NotifyLinkSample(NodeId node, double throughput_ratio, bool slow);

  // --- stage service-time quantiles (published by the stage loop) ---
  // The running stage's live (or carried) P50/P95 service times in seconds;
  // 0 until a stage first arms. Fetch timeouts derive from the P95.
  void PublishStageQuantiles(double p50_seconds, double p95_seconds) {
    stage_p50_seconds_.store(p50_seconds, std::memory_order_relaxed);
    stage_p95_seconds_.store(p95_seconds, std::memory_order_relaxed);
  }
  double StageP50Seconds() const { return stage_p50_seconds_.load(std::memory_order_relaxed); }
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

  // In-flight claim for one checkpoint path; at most one writer holds it.
  bool ClaimCheckpointWrite(const std::string& path);
  void ReleaseCheckpointWrite(const std::string& path);
  bool CheckpointWriteInFlight(const std::string& path) const;

  ClusterManager* cluster_;
  Dfs* dfs_;
  EngineConfig config_;
  ShuffleManager shuffle_mgr_;
  LatencyModel latency_{config_.model_latency};
  EngineCounters counters_{latency_};

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

  // Running stage's service-time quantiles (seconds); see
  // PublishStageQuantiles. Written by the scheduler thread, read by
  // reduce-side tasks deriving fetch timeouts.
  std::atomic<double> stage_p50_seconds_{0.0};
  std::atomic<double> stage_p95_seconds_{0.0};

  // Checkpoint write tracking: in-flight path claims (prevents double
  // writes) and the per-RDD metadata of durably written partitions, consumed
  // by CommitCheckpointManifest.
  mutable Mutex ckpt_mutex_{"FlintContext::ckpt_mutex_"};
  std::unordered_set<std::string> ckpt_inflight_ GUARDED_BY(ckpt_mutex_);
  std::unordered_map<int, std::unordered_map<int, CheckpointPartitionMeta>> ckpt_written_
      GUARDED_BY(ckpt_mutex_);

  // Exports EngineCounters + block/shuffle aggregates into the global
  // MetricsRegistry. Declared last so it unhooks before any state it reads
  // is torn down.
  ScopedCollector metrics_collector_;
};

}  // namespace flint

#endif  // SRC_ENGINE_CONTEXT_H_
