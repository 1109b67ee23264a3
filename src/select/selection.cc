#include "src/select/selection.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/common/stats.h"
#include "src/obs/trace.h"

namespace flint {

namespace {

// Weight of the newest observed link-throughput sample in the per-market
// EWMA (RecordObservedThroughput).
constexpr double kLinkEwmaAlpha = 0.3;

// Sort key for ranking evaluations by expected unit cost. Two degenerate
// shapes must rank LAST instead of entering the comparator raw:
//   - non-finite costs (an empty stats window can surface NaN/inf through
//     the factor*price arithmetic) — NaN breaks std::sort's strict weak
//     ordering, which is UB;
//   - spot markets with no usable window data (mttf<=0 or avg_price<=0):
//     the policy guards turn those into expected_unit_cost == 0, which would
//     wrongly *win* the ranking with a free cost.
// On-demand is exempt from the second rule (its price is authoritative).
double RankCost(const MarketEvaluation& ev) {
  if (!std::isfinite(ev.expected_unit_cost)) {
    return std::numeric_limits<double>::infinity();
  }
  if (ev.id != kOnDemandMarket && (ev.mttf_hours <= 0.0 || ev.avg_price <= 0.0)) {
    return std::numeric_limits<double>::infinity();
  }
  return ev.expected_unit_cost;
}

}  // namespace

double ServerSelector::BidFor(MarketId id) const {
  if (id == kOnDemandMarket) {
    return marketplace_->on_demand_price();
  }
  return config_.bid_multiple * marketplace_->market(id).on_demand_price();
}

bool ServerSelector::Admissible(MarketId id, SimTime now) const {
  if (id == kOnDemandMarket) {
    return true;
  }
  // Skip markets that are currently spiking (instantaneous price far above
  // the recent average) or outright unavailable at our bid.
  if (!marketplace_->PriceNearAverage(id, now, config_.history_window,
                                      config_.price_threshold)) {
    return false;
  }
  return marketplace_->market(id).Available(now, BidFor(id));
}

void ServerSelector::RecordObservedThroughput(MarketId id, double ratio) {
  if (!std::isfinite(ratio) || ratio <= 0.0) {
    return;
  }
  const double clamped = std::min(ratio, 1.0);
  MutexLock lock(&link_mutex_);
  auto [it, inserted] = link_ewma_.try_emplace(id, clamped);
  if (!inserted) {
    it->second = (1.0 - kLinkEwmaAlpha) * it->second + kLinkEwmaAlpha * clamped;
  }
}

double ServerSelector::ObservedThroughput(MarketId id) const {
  ReaderMutexLock lock(&link_mutex_);
  auto it = link_ewma_.find(id);
  return it == link_ewma_.end() ? 1.0 : it->second;
}

MarketEvaluation ServerSelector::Evaluate(MarketId id, SimTime now, const JobProfile& job) const {
  MarketEvaluation ev;
  ev.id = id;
  const BidStats stats =
      marketplace_->WindowStats(id, now, config_.history_window, BidFor(id));
  ev.mttf_hours = stats.mttf_hours;
  ev.avg_price = stats.avg_price;
  ev.expected_factor = ExpectedRuntimeFactor(job.delta_hours, job.rd_hours, ev.mttf_hours, 1);
  ev.link_throughput = std::clamp(ObservedThroughput(id), 0.01, 1.0);
  // A market observed delivering half its modelled bandwidth needs roughly
  // twice the wall clock per unit of shuffle-bound work, so its effective
  // unit cost doubles. Unobserved markets divide by 1 (no penalty).
  ev.expected_unit_cost = ev.expected_factor * ev.avg_price / ev.link_throughput;
  return ev;
}

std::vector<MarketEvaluation> ServerSelector::EvaluateMarkets(
    SimTime now, const JobProfile& job, const std::unordered_set<MarketId>& exclude) const {
  std::vector<MarketEvaluation> out;
  for (MarketId id = 0; id < static_cast<MarketId>(marketplace_->num_markets()); ++id) {
    if (exclude.count(id) > 0 || !Admissible(id, now)) {
      continue;
    }
    out.push_back(Evaluate(id, now, job));
  }
  // The on-demand pool participates as a market with infinite MTTF (Sec 3.1.2).
  out.push_back(Evaluate(kOnDemandMarket, now, job));
  uint64_t degenerate = 0;
  for (const MarketEvaluation& ev : out) {
    if (!std::isfinite(RankCost(ev))) {
      ++degenerate;
    }
  }
  degenerate_evaluations_.fetch_add(degenerate, std::memory_order_relaxed);
  std::sort(out.begin(), out.end(), [](const MarketEvaluation& a, const MarketEvaluation& b) {
    const double ca = RankCost(a);
    const double cb = RankCost(b);
    if (ca != cb) {
      return ca < cb;
    }
    return a.id < b.id;  // deterministic tie-break
  });
  if (TracingEnabled() && !out.empty()) {
    // Ranked list as "market:cost" pairs so a trace shows what the policy saw.
    std::string ranking;
    for (size_t i = 0; i < out.size() && i < 8; ++i) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%s%d:%.4g", i > 0 ? " " : "", out[i].id,
                    out[i].expected_unit_cost);
      ranking += buf;
    }
    Tracer::Global().RecordInstant(
        "market_selection", "market",
        {{"candidates", static_cast<double>(out.size())},
         {"best_market", static_cast<double>(out.front().id)},
         {"best_unit_cost", out.front().expected_unit_cost},
         {"best_mttf_hours", out.front().mttf_hours},
         {"degenerate", static_cast<double>(degenerate)}},
        std::move(ranking));
  }
  return out;
}

Result<MarketEvaluation> ServerSelector::SelectBatch(
    SimTime now, const JobProfile& job, const std::unordered_set<MarketId>& exclude) const {
  std::vector<MarketEvaluation> evs = EvaluateMarkets(now, job, exclude);
  if (evs.empty()) {
    return Unavailable("no admissible market");
  }
  return evs.front();
}

Result<MarketEvaluation> ServerSelector::SelectCheapest(
    SimTime now, const JobProfile& job, const std::unordered_set<MarketId>& exclude) const {
  std::vector<MarketEvaluation> evs = EvaluateMarkets(now, job, exclude);
  MarketEvaluation* best = nullptr;
  for (auto& ev : evs) {
    if (ev.id == kOnDemandMarket) {
      continue;  // SpotFleet picks among spot pools
    }
    if (best == nullptr || ev.avg_price < best->avg_price) {
      best = &ev;
    }
  }
  if (best == nullptr) {
    return Unavailable("no admissible spot market");
  }
  return *best;
}

Result<MarketEvaluation> ServerSelector::SelectLeastVolatile(
    SimTime now, const JobProfile& job, const std::unordered_set<MarketId>& exclude) const {
  std::vector<MarketEvaluation> evs = EvaluateMarkets(now, job, exclude);
  MarketEvaluation* best = nullptr;
  for (auto& ev : evs) {
    if (ev.id == kOnDemandMarket) {
      continue;
    }
    if (best == nullptr || ev.mttf_hours > best->mttf_hours) {
      best = &ev;
    }
  }
  if (best == nullptr) {
    return Unavailable("no admissible spot market");
  }
  return *best;
}

std::vector<MarketId> ServerSelector::UncorrelatedSet(size_t max_size) const {
  const size_t n = marketplace_->num_markets();
  std::vector<MarketId> all(n);
  for (size_t i = 0; i < n; ++i) {
    all[i] = static_cast<MarketId>(i);
  }
  if (n <= 2 || max_size >= n) {
    if (all.size() > max_size) {
      all.resize(max_size);
    }
    return all;
  }
  const auto corr = marketplace_->CorrelationMatrix();
  auto abs_corr = [&](MarketId a, MarketId b) {
    return std::fabs(corr[static_cast<size_t>(a)][static_cast<size_t>(b)]);
  };
  // Seed with the least-correlated pair, then greedily add the market whose
  // maximum correlation to the current set is smallest.
  MarketId s0 = 0;
  MarketId s1 = 1;
  double best_pair = abs_corr(s0, s1);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double c = abs_corr(static_cast<MarketId>(i), static_cast<MarketId>(j));
      if (c < best_pair) {
        best_pair = c;
        s0 = static_cast<MarketId>(i);
        s1 = static_cast<MarketId>(j);
      }
    }
  }
  std::vector<MarketId> set = {s0, s1};
  std::unordered_set<MarketId> in_set = {s0, s1};
  while (set.size() < max_size) {
    MarketId best = kOnDemandMarket;
    double best_max = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      const MarketId cand = static_cast<MarketId>(i);
      if (in_set.count(cand) > 0) {
        continue;
      }
      double max_c = 0.0;
      for (MarketId m : set) {
        max_c = std::max(max_c, abs_corr(cand, m));
      }
      if (max_c < best_max) {
        best_max = max_c;
        best = cand;
      }
    }
    if (best == kOnDemandMarket || best_max > config_.correlation_threshold) {
      break;
    }
    set.push_back(best);
    in_set.insert(best);
  }
  return set;
}

MixEvaluation ServerSelector::EvaluateMix(const std::vector<MarketId>& markets, SimTime now,
                                          const JobProfile& job) const {
  MixEvaluation mix;
  mix.markets = markets;
  std::vector<double> mttfs;
  double price_sum = 0.0;
  for (MarketId id : markets) {
    const BidStats stats =
        marketplace_->WindowStats(id, now, config_.history_window, BidFor(id));
    mttfs.push_back(stats.mttf_hours);
    price_sum += stats.avg_price;
  }
  const int m = static_cast<int>(markets.size());
  mix.aggregate_mttf_hours = AggregateMttf(mttfs);
  mix.expected_factor =
      ExpectedRuntimeFactor(job.delta_hours, job.rd_hours, mix.aggregate_mttf_hours, m);
  mix.expected_unit_cost =
      mix.expected_factor * (m > 0 ? price_sum / static_cast<double>(m) : 0.0);
  mix.runtime_variance =
      RuntimeVariancePerUnitTime(job.delta_hours, job.rd_hours, mix.aggregate_mttf_hours, m);
  return mix;
}

Result<MixEvaluation> ServerSelector::SelectInteractive(
    SimTime now, const JobProfile& job, const std::unordered_set<MarketId>& exclude) const {
  // 1. Candidate set L of mutually uncorrelated markets, filtered.
  std::vector<MarketId> candidates;
  for (MarketId id : UncorrelatedSet(config_.max_candidate_set)) {
    if (exclude.count(id) == 0 && Admissible(id, now)) {
      candidates.push_back(id);
    }
  }
  if (candidates.empty()) {
    MixEvaluation od = EvaluateMix({kOnDemandMarket}, now, job);
    return od;
  }
  // 2. Sort candidates by expected unit cost (batch criterion). Evaluate
  // walks the full price history, so compute each cost exactly once instead
  // of inside the comparator (which re-evaluates O(n log n) times).
  // RankCost keeps NaN/degenerate costs out of the pair comparator too.
  std::vector<std::pair<double, MarketId>> ranked;
  ranked.reserve(candidates.size());
  for (MarketId id : candidates) {
    ranked.emplace_back(RankCost(Evaluate(id, now, job)), id);
  }
  std::sort(ranked.begin(), ranked.end());
  for (size_t i = 0; i < ranked.size(); ++i) {
    candidates[i] = ranked[i].second;
  }
  const double on_demand_cost = marketplace_->on_demand_price();

  // 3. Greedily add markets while the variance decreases.
  std::vector<MarketId> chosen = {candidates.front()};
  MixEvaluation best = EvaluateMix(chosen, now, job);
  for (size_t i = 1;
       i < candidates.size() && chosen.size() < static_cast<size_t>(config_.max_markets_in_mix);
       ++i) {
    std::vector<MarketId> trial = chosen;
    trial.push_back(candidates[i]);
    MixEvaluation trial_mix = EvaluateMix(trial, now, job);
    if (trial_mix.runtime_variance >= best.runtime_variance) {
      break;  // adding this market no longer reduces variance
    }
    if (trial_mix.expected_unit_cost > on_demand_cost) {
      break;  // never exceed the on-demand cost (Sec 3.2.2)
    }
    chosen = std::move(trial);
    best = std::move(trial_mix);
  }
  return best;
}

Result<MarketEvaluation> ServerSelector::SelectReplacement(
    SelectionPolicyKind policy, SimTime now, const JobProfile& job,
    const std::unordered_set<MarketId>& exclude) const {
  switch (policy) {
    case SelectionPolicyKind::kFlintBatch:
      return SelectBatch(now, job, exclude);
    case SelectionPolicyKind::kFlintInteractive: {
      // Replace from the lowest-cost admissible *unused* market in L.
      for (MarketId id : UncorrelatedSet(config_.max_candidate_set)) {
        if (exclude.count(id) == 0 && Admissible(id, now)) {
          return Evaluate(id, now, job);
        }
      }
      return Evaluate(kOnDemandMarket, now, job);
    }
    case SelectionPolicyKind::kSpotFleetCheapest:
      return SelectCheapest(now, job, exclude);
    case SelectionPolicyKind::kSpotFleetLeastVolatile:
      return SelectLeastVolatile(now, job, exclude);
    case SelectionPolicyKind::kOnDemand:
      return Evaluate(kOnDemandMarket, now, job);
  }
  return Internal("unknown selection policy");
}

}  // namespace flint
