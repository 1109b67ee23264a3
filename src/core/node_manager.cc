#include "src/core/node_manager.h"

#include <algorithm>

#include "src/common/log.h"
#include "src/common/stats.h"
#include "src/obs/trace.h"

// flint-lint: allow-file(det-wallclock) the engine->sim time mapping and lease accounting are wall-clock by definition

namespace flint {

NodeHealthLedger& NodeHealthLedger::Global() {
  // flint-lint: allow(proc-global) read-only shell that perfbench/flint_e2e.cc still calls
  static NodeHealthLedger* ledger = new NodeHealthLedger();
  return *ledger;
}

NodeManager::NodeManager(FlintContext* ctx, Marketplace* marketplace, FaultToleranceManager* ft,
                         NodeManagerConfig config)
    : ctx_(ctx),
      marketplace_(marketplace),
      ft_(ft),
      config_(std::move(config)),
      selector_(marketplace, config_.selection),
      engine_start_(WallClock::now()) {
  ctx_->AddObserver(this);
  metrics_.AddGauge("flint_node_health_min", [this] {
    ReaderMutexLock lock(&mutex_);
    double min_score = 1.0;
    // A min is order-independent, so hash order is safe here.
    for (const auto& [id, h] : health_) {
      min_score = std::min(min_score, h.score);
    }
    return min_score;
  });
  metrics_.AddGauge("flint_node_quarantined_now", [this] {
    ReaderMutexLock lock(&mutex_);
    return static_cast<double>(std::count_if(health_.begin(), health_.end(),
                                              [](const auto& e) { return e.second.quarantined; }));
  });
  metrics_.AddGauge("flint_node_total_cost", [this] { return TotalCost(); });
  metrics_.AddGauge("flint_node_on_demand_equivalent_cost",
                    [this] { return OnDemandEquivalentCost(); });
}

NodeManager::~NodeManager() {
  ctx_->RemoveObserver(this);
  timers_.Drain();
}

SimTime NodeManager::Now() const {
  const double elapsed_s = WallDuration(WallClock::now() - engine_start_.load()).count();
  return config_.sim_start + ctx_->cluster().time_config().FromEngineSeconds(elapsed_s);
}

Result<std::vector<MarketId>> NodeManager::InitialMarkets() {
  const SimTime now = Now();
  std::vector<MarketId> per_node(static_cast<size_t>(config_.cluster_size), kOnDemandMarket);
  switch (config_.policy) {
    case SelectionPolicyKind::kFlintBatch: {
      FLINT_ASSIGN_OR_RETURN(MarketEvaluation ev, selector_.SelectBatch(now, config_.job));
      std::fill(per_node.begin(), per_node.end(), ev.id);
      return per_node;
    }
    case SelectionPolicyKind::kFlintInteractive: {
      FLINT_ASSIGN_OR_RETURN(MixEvaluation mix, selector_.SelectInteractive(now, config_.job));
      for (size_t i = 0; i < per_node.size(); ++i) {
        per_node[i] = mix.markets[i % mix.markets.size()];
      }
      return per_node;
    }
    case SelectionPolicyKind::kSpotFleetCheapest: {
      FLINT_ASSIGN_OR_RETURN(MarketEvaluation ev, selector_.SelectCheapest(now, config_.job));
      std::fill(per_node.begin(), per_node.end(), ev.id);
      return per_node;
    }
    case SelectionPolicyKind::kSpotFleetLeastVolatile: {
      FLINT_ASSIGN_OR_RETURN(MarketEvaluation ev,
                             selector_.SelectLeastVolatile(now, config_.job));
      std::fill(per_node.begin(), per_node.end(), ev.id);
      return per_node;
    }
    case SelectionPolicyKind::kOnDemand:
      return per_node;
  }
  return Internal("unknown policy");
}

Status NodeManager::Start() {
  {
    MutexLock lock(&mutex_);
    if (started_) {
      return FailedPrecondition("node manager already started");
    }
    started_ = true;
    engine_start_.store(WallClock::now());
  }
  FLINT_ASSIGN_OR_RETURN(std::vector<MarketId> markets, InitialMarkets());
  const SimTime now = Now();
  for (MarketId market : markets) {
    Result<Lease> lease = marketplace_->Acquire(market, selector_.BidFor(market), now);
    if (!lease.ok()) {
      // Spot request refused (price moved): fall back to on-demand.
      od_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      lease = marketplace_->Acquire(kOnDemandMarket, marketplace_->on_demand_price(), now);
    }
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
    const NodeId id = ctx_->cluster().AddNode(lease->market, config_.node_memory_bytes,
                                              config_.executor_threads);
    Tracer::Global().RecordInstant("node_acquired", "market",
                                   {{"node", static_cast<double>(id)},
                                    {"market", static_cast<double>(lease->market)},
                                    {"bid", lease->bid}});
    {
      MutexLock lock(&mutex_);
      leases_[id] = LeaseRecord{*lease, true, 0.0};
    }
    if (config_.market_driven_revocations && std::isfinite(lease->revocation)) {
      ScheduleMarketRevocation(id, lease->revocation);
    }
  }
  UpdateFtMttf();
  return Status::Ok();
}

void NodeManager::ScheduleMarketRevocation(NodeId node, SimTime revocation_time) {
  const TimeConfig& tc = ctx_->cluster().time_config();
  const SimTime warn_at = revocation_time - tc.revocation_warning;
  const double delay_s = std::max(0.0, tc.ToEngineSeconds(warn_at - Now()));
  timers_.ScheduleAfter(WallDuration(delay_s), [this, node] {
    ctx_->cluster().Revoke({node}, /*with_warning=*/true);
  });
}

void NodeManager::UpdateFtMttf() {
  if (ft_ == nullptr) {
    return;
  }
  // Aggregate MTTF of the distinct markets currently in use (Eq. 3).
  std::vector<double> mttfs;
  {
    MutexLock lock(&mutex_);
    std::unordered_set<MarketId> seen;
    for (const auto& [id, rec] : leases_) {
      if (!rec.open || !seen.insert(rec.lease.market).second) {
        continue;
      }
      mttfs.push_back(marketplace_
                          ->WindowStats(rec.lease.market, Now(), config_.selection.history_window,
                                        rec.lease.bid)
                          .mttf_hours);
    }
  }
  // leases_ iterates in hash order; AggregateMttf folds doubles, so sort the
  // samples to keep τ (and everything checkpointing derives from it)
  // bit-identical across runs.
  std::sort(mttfs.begin(), mttfs.end());
  ft_->SetMttf(AggregateMttf(mttfs));
}

void NodeManager::OnNodeWarning(const NodeInfo& node) {
  // Immediate market re-selection on the 2-minute warning (Sec 4): request
  // the replacement before the node is even gone.
  warnings_seen_.fetch_add(1, std::memory_order_relaxed);
  MarketId revoked_market = node.market;
  {
    MutexLock lock(&mutex_);
    if (!warned_.insert(node.node_id).second) {
      return;  // replacement already requested for this node
    }
    auto it = leases_.find(node.node_id);
    if (it != leases_.end()) {
      revoked_market = it->second.lease.market;
    }
    if (revoked_market != kOnDemandMarket) {
      recently_revoked_[revoked_market] = Now();
    }
  }
  ProvisionReplacement(revoked_market);
}

void NodeManager::PruneRevokedLocked(SimTime now) {
  for (auto it = recently_revoked_.begin(); it != recently_revoked_.end();) {
    if (now - it->second > config_.revocation_exclusion_cooldown) {
      it = recently_revoked_.erase(it);
    } else {
      ++it;
    }
  }
}

void NodeManager::ProvisionReplacement(MarketId revoked_market) {
  replacements_.fetch_add(1, std::memory_order_relaxed);
  const SimTime now = Now();
  std::unordered_set<MarketId> exclude;
  {
    MutexLock lock(&mutex_);
    PruneRevokedLocked(now);
    for (const auto& [market, since] : recently_revoked_) {
      exclude.insert(market);
    }
  }
  if (revoked_market != kOnDemandMarket) {
    exclude.insert(revoked_market);
  }
  Result<MarketEvaluation> choice =
      selector_.SelectReplacement(config_.policy, now, config_.job, exclude);
  MarketId market = choice.ok() ? choice->id : kOnDemandMarket;
  Result<Lease> lease = marketplace_->Acquire(market, selector_.BidFor(market), now);
  if (!lease.ok()) {
    od_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    lease = marketplace_->Acquire(kOnDemandMarket, marketplace_->on_demand_price(), now);
  }
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  const NodeId id = ctx_->cluster().AddNodeAfterDelay(lease->market, config_.node_memory_bytes,
                                                      config_.executor_threads);
  Tracer::Global().RecordInstant("node_acquired", "market",
                                 {{"node", static_cast<double>(id)},
                                  {"market", static_cast<double>(lease->market)},
                                  {"bid", lease->bid},
                                  {"replacement", 1.0}});
  {
    MutexLock lock(&mutex_);
    leases_[id] = LeaseRecord{*lease, true, 0.0};
    if (revoked_market != kOnDemandMarket) {
      // When this node joins, only the market it restores is re-admitted.
      replacement_for_[id] = revoked_market;
    }
  }
  if (config_.market_driven_revocations && std::isfinite(lease->revocation)) {
    ScheduleMarketRevocation(id, lease->revocation);
  }
  UpdateFtMttf();
}

double NodeManager::CloseLeaseCost(LeaseRecord& rec, SimTime end) {
  rec.open = false;
  rec.end = end;
  return marketplace_->Cost(rec.lease, end);
}

void NodeManager::OnNodeRevoked(const NodeInfo& node) {
  revocations_seen_.fetch_add(1, std::memory_order_relaxed);
  bool need_replacement = false;
  {
    MutexLock lock(&mutex_);
    auto it = leases_.find(node.node_id);
    if (it != leases_.end() && it->second.open) {
      closed_cost_ += CloseLeaseCost(it->second, Now());
    }
    // Revocation without a warning (e.g. scripted hard kill): the warning
    // path never requested a replacement, so do it now.
    need_replacement = warned_.insert(node.node_id).second;
    // Its health goes with it: the cluster never reuses a node id.
    health_.erase(node.node_id);
  }
  if (need_replacement) {
    ProvisionReplacement(node.market);
  }
}

void NodeManager::OnNodeAdded(const NodeInfo& node) {
  // A replacement joining restores exactly the market it was provisioned
  // for — a storm elsewhere must not re-admit every excluded market at once.
  MutexLock lock(&mutex_);
  auto it = replacement_for_.find(node.node_id);
  if (it != replacement_for_.end()) {
    recently_revoked_.erase(it->second);
    replacement_for_.erase(it);
  }
  PruneRevokedLocked(Now());
}

void NodeManager::OnTaskJudged(NodeId node, double seconds, bool on_time) {
  (void)seconds;
  if (!config_.health.enabled) {
    return;
  }
  AddHealthSample(node, on_time ? 1.0 : 0.0);
}

void NodeManager::OnLinkSample(NodeId node, double throughput_ratio, bool late) {
  if (!config_.health.enabled) {
    return;
  }
  // Charge the observed throughput against the node's market so selection
  // sees the degradation: a market full of sick links prices itself out.
  {
    MarketId market = kOnDemandMarket;
    bool known = false;
    {
      ReaderMutexLock lock(&mutex_);
      auto it = leases_.find(node);
      if (it != leases_.end()) {
        market = it->second.lease.market;
        known = true;
      }
    }
    if (known) {
      selector_.RecordObservedThroughput(market, std::clamp(throughput_ratio, 0.01, 1.0));
    }
  }
  if (!late) {
    return;
  }
  // A late pull indicts the producing node the same way a deadline miss
  // does: its NIC, not its CPU, is the bottleneck, but scheduling onto it
  // hurts just the same.
  const bool was_quarantined = Quarantined(node);
  AddHealthSample(node, 0.0);
  if (!was_quarantined && Quarantined(node)) {
    Tracer::Global().RecordInstant("link_quarantine", "net",
                                   {{"node", static_cast<double>(node)},
                                    {"score", HealthScore(node)}});
  }
}

void NodeManager::AddHealthSample(NodeId node, double sample) {
  const NodeHealthConfig& hc = config_.health;
  bool want_quarantine = false;
  double score = 1.0;
  {
    MutexLock lock(&mutex_);
    NodeHealth& h = health_[node];
    // Written as a step toward the sample so a run of on-time samples holds
    // a healthy node at exactly 1.0.
    h.score += hc.ewma_alpha * (sample - h.score);
    ++h.samples;
    score = h.score;
    if (!h.quarantined && h.samples >= hc.min_samples && h.score < hc.quarantine_threshold) {
      h.quarantined = true;  // tentative until the context accepts it
      want_quarantine = true;
    }
  }
  if (want_quarantine) {
    ApplyQuarantine(node, score);
  }
}

void NodeManager::ApplyQuarantine(NodeId node, double score) {
  if (ctx_->SetNodeQuarantined(node, true)) {
    quarantines_.fetch_add(1, std::memory_order_relaxed);
    FLINT_ILOG() << "node " << node << " quarantined (health score " << score << ")";
    Tracer::Global().RecordInstant("node_quarantined", "cluster",
                                   {{"node", static_cast<double>(node)}, {"score", score}});
    timers_.ScheduleAfter(WallDuration(config_.health.decay_interval_seconds),
                          [this, node] { DecayHealth(node); });
    return;
  }
  // Refused: this is the last schedulable node. Roll the mark back and lift
  // the score to the threshold so the next bad sample retries instead of
  // hammering the context on every completion.
  MutexLock lock(&mutex_);
  auto it = health_.find(node);
  if (it != health_.end()) {
    it->second.quarantined = false;
    it->second.score = std::max(it->second.score, config_.health.quarantine_threshold);
  }
}

void NodeManager::DecayHealth(NodeId node) {
  const NodeHealthConfig& hc = config_.health;
  bool recovered = false;
  double score = 1.0;
  {
    MutexLock lock(&mutex_);
    auto it = health_.find(node);
    if (it == health_.end() || !it->second.quarantined) {
      return;  // revoked or already lifted
    }
    NodeHealth& h = it->second;
    h.score += hc.decay_rate * (1.0 - h.score);
    score = h.score;
    if (h.score >= hc.recover_threshold) {
      h.quarantined = false;
      // Require a fresh run of bad samples before re-quarantining.
      h.samples = 0;
      recovered = true;
    }
  }
  if (recovered) {
    ctx_->SetNodeQuarantined(node, false);
    unquarantines_.fetch_add(1, std::memory_order_relaxed);
    FLINT_ILOG() << "node " << node << " recovered from quarantine (health score " << score
                 << ")";
    Tracer::Global().RecordInstant("node_unquarantined", "cluster",
                                   {{"node", static_cast<double>(node)}, {"score", score}});
  } else {
    timers_.ScheduleAfter(WallDuration(hc.decay_interval_seconds),
                          [this, node] { DecayHealth(node); });
  }
}

double NodeManager::HealthScore(NodeId node) const {
  ReaderMutexLock lock(&mutex_);
  auto it = health_.find(node);
  return it != health_.end() ? it->second.score : 1.0;
}

bool NodeManager::Quarantined(NodeId node) const {
  ReaderMutexLock lock(&mutex_);
  auto it = health_.find(node);
  return it != health_.end() && it->second.quarantined;
}

double NodeManager::TotalCost() const {
  ReaderMutexLock lock(&mutex_);
  const SimTime now = Now();
  // Fold per-lease costs in node-id order: leases_ iterates in hash order
  // and float addition is not associative, so an unsorted sum's low bits
  // would differ run to run.
  std::vector<std::pair<NodeId, double>> open_costs;
  open_costs.reserve(leases_.size());
  for (const auto& [id, rec] : leases_) {
    if (rec.open) {
      open_costs.emplace_back(id, marketplace_->Cost(rec.lease, now));
    }
  }
  std::sort(open_costs.begin(), open_costs.end());
  double total = closed_cost_;
  for (const auto& [id, c] : open_costs) {
    total += c;
  }
  return total;
}

double NodeManager::OnDemandEquivalentCost() const {
  ReaderMutexLock lock(&mutex_);
  // On-demand bills whole hours per server, like the spot side. Same
  // sorted-fold as TotalCost for run-to-run bit-identical sums.
  const SimTime now = Now();
  std::vector<std::pair<NodeId, double>> costs;
  costs.reserve(leases_.size());
  for (const auto& [id, rec] : leases_) {
    const double hours = rec.open ? std::max(0.0, now - rec.lease.start)
                                  : std::max(0.0, rec.end - rec.lease.start);
    costs.emplace_back(id, std::ceil(hours - 1e-9) * marketplace_->on_demand_price());
  }
  std::sort(costs.begin(), costs.end());
  double cost = 0.0;
  for (const auto& [id, c] : costs) {
    cost += c;
  }
  return cost;
}

std::vector<MarketId> NodeManager::ExcludedMarkets() const {
  ReaderMutexLock lock(&mutex_);
  std::vector<MarketId> out;
  out.reserve(recently_revoked_.size());
  for (const auto& [market, since] : recently_revoked_) {
    out.push_back(market);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<MarketId> NodeManager::ActiveMarkets() const {
  ReaderMutexLock lock(&mutex_);
  std::unordered_set<MarketId> seen;
  std::vector<MarketId> out;
  for (const auto& [id, rec] : leases_) {
    if (rec.open && seen.insert(rec.lease.market).second) {
      out.push_back(rec.lease.market);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace flint
