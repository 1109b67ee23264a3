// The node manager (paper Sec 4, Fig 5): provisions a cluster of N transient
// servers using a server-selection policy, monitors market state, replaces
// revoked servers (restoration policy), keeps the fault-tolerance manager's
// cluster MTTF estimate current, and bills every lease.
//
// It bridges the two time planes: engine wall time advances the simulated
// market clock at TimeConfig::seconds_per_model_hour. With
// market_driven_revocations, leases' trace-determined revocation times are
// scheduled onto the cluster as warnings + revocations; benches that need
// scripted faults leave it off and call ClusterManager::Revoke directly.

#ifndef SRC_CORE_NODE_MANAGER_H_
#define SRC_CORE_NODE_MANAGER_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/checkpoint/ft_manager.h"
#include "src/cluster/timer_queue.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/engine/context.h"
#include "src/engine/observer.h"
#include "src/market/marketplace.h"
#include "src/select/selection.h"

namespace flint {

// Node-health scoring (DESIGN.md "Straggler mitigation"). Every judged task
// attempt updates an EWMA health score per node with one binary sample, by
// the speculation deadline (EngineObserver::OnTaskJudged): an on-time
// attempt contributes 1, a late one (deadline miss, late success, budgeted
// failure) 0. A late shuffle pull contributes 0 to its producer
// (OnLinkSample); a degraded pull within the deadline is not scored, though
// market selection still sees its throughput. Nodes whose score sinks below
// quarantine_threshold (after min_samples) are excluded from scheduling — a
// reversible drain — and recover by timer-driven decay back toward 1.0,
// rejoining once the score passes recover_threshold.
struct NodeHealthConfig {
  bool enabled = true;
  double ewma_alpha = 0.3;            // weight of the newest sample
  double quarantine_threshold = 0.35; // quarantine below this score
  double recover_threshold = 0.7;     // un-quarantine once decay reaches this
  int min_samples = 4;                // samples before quarantine can trigger
  double decay_interval_seconds = 0.25;  // quarantined-score recovery tick
  double decay_rate = 0.15;           // score += rate * (1 - score) per tick
};

// One node's EWMA health state (see NodeHealthConfig).
struct NodeHealth {
  double score = 1.0;
  int samples = 0;
  bool quarantined = false;
};

// Empty shell of the former process-wide health ledger. Health belongs to
// each cluster's NodeManager; nothing records here, so Lookup always misses.
// It is kept only because perfbench/flint_e2e.cc still resets and probes it
// before every cluster, and is deleted with the next benchmark change
// (ROADMAP item 2). Nothing else may call it.
class NodeHealthLedger {
 public:
  static NodeHealthLedger& Global();
  void Reset() {}
  bool Lookup(NodeId node, NodeHealth* out) const {
    (void)node;
    (void)out;
    return false;
  }
};

struct NodeManagerConfig {
  int cluster_size = 10;
  uint64_t node_memory_bytes = 64 * kMiB;
  int executor_threads = 1;
  SelectionPolicyKind policy = SelectionPolicyKind::kFlintBatch;
  SelectionConfig selection;
  JobProfile job;
  // Drive revocations from the market traces (demo / end-to-end runs).
  // Benches with scripted fault plans keep this false.
  bool market_driven_revocations = false;
  // Simulated epoch at which the cluster starts; defaults to one window in so
  // "recent history" exists.
  SimTime sim_start = Hours(24.0 * 7);
  // A market revoked recently is excluded from restoration until its own
  // replacement joins, or this much simulated time passes, whichever comes
  // first (a storm elsewhere must not re-admit a market still in turmoil).
  SimDuration revocation_exclusion_cooldown = Hours(1.0);
  NodeHealthConfig health;
};

class NodeManager : public EngineObserver {
 public:
  NodeManager(FlintContext* ctx, Marketplace* marketplace, FaultToleranceManager* ft,
              NodeManagerConfig config);
  ~NodeManager() override;

  NodeManager(const NodeManager&) = delete;
  NodeManager& operator=(const NodeManager&) = delete;

  // Runs the initial selection policy and provisions cluster_size nodes.
  Status Start();

  // Current simulated market time.
  SimTime Now() const;

  // Total cost accrued so far across all leases (closed + open-to-now).
  double TotalCost() const;
  // What the same node-hours would have cost on on-demand servers.
  double OnDemandEquivalentCost() const;

  // Markets currently in use (distinct, live nodes).
  std::vector<MarketId> ActiveMarkets() const;
  // Markets currently excluded from restoration (sorted); observability for
  // dashboards and tests.
  std::vector<MarketId> ExcludedMarkets() const;
  const ServerSelector& selector() const { return selector_; }

  // Current EWMA health score of `node` (1.0 when unknown) and whether the
  // health scorer holds it in quarantine.
  double HealthScore(NodeId node) const;
  bool Quarantined(NodeId node) const;
  const MetricSet& metrics() const { return metrics_; }

  // EngineObserver:
  void OnNodeWarning(const NodeInfo& node) override;
  void OnNodeRevoked(const NodeInfo& node) override;
  void OnNodeAdded(const NodeInfo& node) override;
  void OnTaskJudged(NodeId node, double seconds, bool on_time) override;
  void OnLinkSample(NodeId node, double throughput_ratio, bool late) override;

 private:
  struct LeaseRecord {
    Lease lease;
    bool open = true;
    SimTime end = 0.0;
  };
  // Picks markets for the initial cluster per the policy. Returns one entry
  // per node (round-robin across the mix for interactive).
  Result<std::vector<MarketId>> InitialMarkets();
  // Acquires a lease and registers a node joining after the acquisition
  // delay. Falls back to on-demand if the market refuses.
  void ProvisionReplacement(MarketId preferred);
  void UpdateFtMttf();
  // Drops exclusion entries older than the cooldown.
  void PruneRevokedLocked(SimTime now) REQUIRES(mutex_);
  void ScheduleMarketRevocation(NodeId node, SimTime revocation_time);
  // Mutates a LeaseRecord living inside leases_.
  double CloseLeaseCost(LeaseRecord& rec, SimTime end) REQUIRES(mutex_);
  // Folds one health sample (1.0 = on time, 0.0 = late) into the node's
  // EWMA and quarantines it when the score sinks below threshold.
  void AddHealthSample(NodeId node, double sample);
  // Actually excludes `node` from scheduling (outside mutex_: the context's
  // node lock orders after ours) and arms the recovery decay timer. Rolls
  // the mark back if the context refuses (last schedulable node).
  void ApplyQuarantine(NodeId node, double score);
  // Timer tick: decays a quarantined node's score toward 1.0 and lifts the
  // quarantine once it crosses the recovery threshold.
  void DecayHealth(NodeId node);

  FlintContext* ctx_;
  Marketplace* marketplace_;
  FaultToleranceManager* ft_;
  NodeManagerConfig config_;
  ServerSelector selector_;

  mutable Mutex mutex_{"NodeManager::mutex_"};
  // Atomic, not mutex_-guarded: Now() is called while mutex_ is already held
  // (cost accounting) as well as lock-free from the timer thread.
  std::atomic<WallTime> engine_start_;
  bool started_ GUARDED_BY(mutex_) = false;
  std::unordered_map<NodeId, LeaseRecord> leases_ GUARDED_BY(mutex_);
  std::unordered_set<NodeId> warned_ GUARDED_BY(mutex_);  // replacement already requested
  // Markets excluded from restoration, keyed by when the exclusion started.
  // An entry clears when that market's replacement lands (replacement_for_)
  // or lazily once the configured cooldown elapses.
  std::unordered_map<MarketId, SimTime> recently_revoked_ GUARDED_BY(mutex_);
  // Pending replacement node -> the market whose revocation it restores.
  std::unordered_map<NodeId, MarketId> replacement_for_ GUARDED_BY(mutex_);
  double closed_cost_ GUARDED_BY(mutex_) = 0.0;
  // Per-node health of this cluster's live nodes; a revoked node's record
  // goes with it.
  std::unordered_map<NodeId, NodeHealth> health_ GUARDED_BY(mutex_);

  // Declared after the lease and health state its cost and health gauges
  // read.
  MetricSet metrics_;
  // Lease-lifecycle accounting: leases acquired (initial + replacement), spot
  // refusals that fell back to on-demand, replacement provisions requested,
  // revocation warnings and revocations observed, and health quarantines
  // imposed and lifted.
  std::atomic<uint64_t>& acquisitions_ = metrics_.AddCounter("flint_node_acquisitions");
  std::atomic<uint64_t>& od_fallbacks_ = metrics_.AddCounter("flint_node_on_demand_fallbacks");
  std::atomic<uint64_t>& replacements_ = metrics_.AddCounter("flint_node_replacements");
  std::atomic<uint64_t>& warnings_seen_ = metrics_.AddCounter("flint_node_warnings");
  std::atomic<uint64_t>& revocations_seen_ = metrics_.AddCounter("flint_node_revocations");
  std::atomic<uint64_t>& quarantines_ = metrics_.AddCounter("flint_node_quarantines");
  std::atomic<uint64_t>& unquarantines_ = metrics_.AddCounter("flint_node_unquarantines");

  TimerQueue timers_;
};

}  // namespace flint

#endif  // SRC_CORE_NODE_MANAGER_H_
