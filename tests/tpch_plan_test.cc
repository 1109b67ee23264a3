// TPC-H on co-partitioned tables: the generators emit lineitem and orders
// bucketed by order key (customer by customer key), and the queries declare
// it (KeyPartitioned), so joins and aggregations on order key need no
// shuffle. Pins the shuffles each query plans, and checks Q1, Q3, Q10, Q12
// and Q18 against driver-side oracles over the collected tables, fault-free
// and again after half the nodes are revoked, with bit-identical answers
// across the two runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/workloads/tpch.h"
#include "tests/test_util.h"

namespace flint {
namespace {

using testing::EngineHarness;

TpchParams PlanDb(int partitions) {
  TpchParams p;
  p.num_customers = 120;
  p.num_orders = 900;
  p.max_lines_per_order = 4;
  p.partitions = partitions;
  return p;
}

// Shuffles registered while `run` plans and executes one query.
size_t ShufflesOf(FlintContext& ctx, const std::function<Status()>& run) {
  const size_t before = ctx.shuffles().NumShuffles();
  const Status status = run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return ctx.shuffles().NumShuffles() - before;
}

// Partition counts 4 and 8 exercise the masked routing rule, 6 the modulo.
TEST(TpchPlanTest, ShufflesPerQuery) {
  for (int partitions : {4, 6, 8}) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    EngineHarness h;
    auto db = TpchDatabase::Load(h.ctx(), PlanDb(partitions));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    FlintContext& ctx = h.ctx();
    EXPECT_EQ(ShufflesOf(ctx, [&] { return db->RunQ1().status(); }), 1u);   // group-by flags
    EXPECT_EQ(ShufflesOf(ctx, [&] { return db->RunQ3().status(); }), 2u);   // orders by cust,
                                                                            // then re-keyed
    EXPECT_EQ(ShufflesOf(ctx, [&] { return db->RunQ6().status(); }), 0u);
    EXPECT_EQ(ShufflesOf(ctx, [&] { return db->RunQ10().status(); }), 1u);  // by customer
    EXPECT_EQ(ShufflesOf(ctx, [&] { return db->RunQ12().status(); }), 1u);  // by priority
    EXPECT_EQ(ShufflesOf(ctx, [&] { return db->RunQ18().status(); }), 0u);
  }
}

// Partition p of each table holds exactly the keys KeyPartitionOf routes to
// p, in key order.
TEST(TpchPlanTest, TablesAreBucketedByJoinKey) {
  EngineHarness h;
  const TpchParams params = PlanDb(6);
  auto db = TpchDatabase::Load(h.ctx(), params);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto check = [&params](const auto& table, auto key_of, int num_keys) {
    auto rows = table.Collect();
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    // Collect concatenates partitions in order: the keys read back are each
    // partition's keys, ascending, partition after partition.
    std::vector<int> expect;
    for (int p = 0; p < params.partitions; ++p) {
      for (int k = 0; k < num_keys; ++k) {
        if (KeyPartitionOf(k, params.partitions) == p) {
          expect.push_back(k);
        }
      }
    }
    std::vector<int> got;
    for (const auto& row : *rows) {
      if (got.empty() || got.back() != key_of(row)) {
        got.push_back(key_of(row));
      }
    }
    EXPECT_EQ(got, expect) << table.name();
  };
  check(db->customer(), [](const Customer& c) { return c.cust_key; }, params.num_customers);
  check(db->orders(), [](const Order& o) { return o.order_key; }, params.num_orders);
  check(db->lineitem(), [](const LineItem& l) { return l.order_key; }, params.num_orders);
}

// Driver-side copies of the three tables.
struct Tables {
  std::vector<LineItem> lines;
  std::vector<Order> orders;
  std::vector<Customer> customers;
};

Tables CollectTables(const TpchDatabase& db) {
  Tables t;
  auto lines = db.lineitem().Collect();
  auto orders = db.orders().Collect();
  auto customers = db.customer().Collect();
  EXPECT_TRUE(lines.ok() && orders.ok() && customers.ok());
  if (lines.ok() && orders.ok() && customers.ok()) {
    t = {*lines, *orders, *customers};
  }
  return t;
}

// One run of the five join/group queries at their default parameters.
struct Answers {
  std::vector<Q1Row> q1;
  std::vector<Q3Row> q3;
  std::vector<Q10Row> q10;
  std::vector<Q12Row> q12;
  std::vector<Q18Row> q18;
};

Answers RunAll(const TpchDatabase& db) {
  Answers a;
  auto q1 = db.RunQ1();
  auto q3 = db.RunQ3();
  auto q10 = db.RunQ10();
  auto q12 = db.RunQ12();
  auto q18 = db.RunQ18();
  EXPECT_TRUE(q1.ok()) << q1.status().ToString();
  EXPECT_TRUE(q3.ok()) << q3.status().ToString();
  EXPECT_TRUE(q10.ok()) << q10.status().ToString();
  EXPECT_TRUE(q12.ok()) << q12.status().ToString();
  EXPECT_TRUE(q18.ok()) << q18.status().ToString();
  if (q1.ok() && q3.ok() && q10.ok() && q12.ok() && q18.ok()) {
    a = {*q1, *q3, *q10, *q12, *q18};
  }
  return a;
}

// Every field, exactly: the two runs must agree bit for bit.
void ExpectIdentical(const Answers& a, const Answers& b) {
  auto q1 = [](const Q1Row& r) {
    return std::tie(r.return_flag, r.line_status, r.sum_qty, r.sum_base_price, r.sum_disc_price,
                    r.sum_charge, r.count);
  };
  auto q3 = [](const Q3Row& r) {
    return std::tie(r.order_key, r.revenue, r.order_date, r.ship_priority);
  };
  auto q10 = [](const Q10Row& r) { return std::tie(r.cust_key, r.revenue, r.returned_lines); };
  auto q12 = [](const Q12Row& r) {
    return std::tie(r.ship_priority, r.high_line_count, r.low_line_count);
  };
  auto q18 = [](const Q18Row& r) {
    return std::tie(r.order_key, r.cust_key, r.total_price, r.sum_quantity);
  };
  auto same = [](const auto& x, const auto& y, auto fields) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                      [&fields](const auto& l, const auto& r) { return fields(l) == fields(r); });
  };
  EXPECT_TRUE(same(a.q1, b.q1, q1));
  EXPECT_TRUE(same(a.q3, b.q3, q3));
  EXPECT_TRUE(same(a.q10, b.q10, q10));
  EXPECT_TRUE(same(a.q12, b.q12, q12));
  EXPECT_TRUE(same(a.q18, b.q18, q18));
}

// Sums fold in another order on the driver, so doubles match to rounding;
// keys, counts and row order match exactly.
constexpr double kRel = 1e-9;

void ExpectQ1MatchesOracle(const std::vector<Q1Row>& got, const Tables& t) {
  const int cutoff = kTpchMaxDate - 90;
  std::map<std::pair<int, int>, Q1Row> expect;
  for (const LineItem& l : t.lines) {
    if (l.ship_date > cutoff) {
      continue;
    }
    Q1Row& agg = expect[{l.return_flag, l.line_status}];
    agg.return_flag = l.return_flag;
    agg.line_status = l.line_status;
    agg.sum_qty += l.quantity;
    agg.sum_base_price += l.extended_price;
    agg.sum_disc_price += l.extended_price * (1.0 - l.discount);
    agg.sum_charge += l.extended_price * (1.0 - l.discount) * (1.0 + l.tax);
    agg.count += 1;
  }
  ASSERT_EQ(got.size(), expect.size());
  size_t i = 0;
  for (const auto& [key, ref] : expect) {
    const Q1Row& row = got[i++];
    EXPECT_EQ(std::make_pair(row.return_flag, row.line_status), key);
    EXPECT_EQ(row.count, ref.count);
    EXPECT_EQ(row.sum_qty, ref.sum_qty);  // integral quantities sum exactly
    EXPECT_NEAR(row.sum_base_price, ref.sum_base_price, kRel * ref.sum_base_price);
    EXPECT_NEAR(row.sum_disc_price, ref.sum_disc_price, kRel * ref.sum_disc_price);
    EXPECT_NEAR(row.sum_charge, ref.sum_charge, kRel * ref.sum_charge);
  }
}

void ExpectQ3MatchesOracle(const std::vector<Q3Row>& got, const Tables& t) {
  const int segment = 1;
  const int date = kTpchMaxDate / 2;
  const size_t top_n = 10;
  std::set<int> in_segment;
  for (const Customer& c : t.customers) {
    if (c.mkt_segment == segment) {
      in_segment.insert(c.cust_key);
    }
  }
  std::map<int, Q3Row> by_order;
  std::map<int, const Order*> open_orders;
  for (const Order& o : t.orders) {
    if (o.order_date < date && in_segment.count(o.cust_key) > 0) {
      open_orders[o.order_key] = &o;
    }
  }
  for (const LineItem& l : t.lines) {
    auto it = open_orders.find(l.order_key);
    if (l.ship_date <= date || it == open_orders.end()) {
      continue;
    }
    Q3Row& r = by_order[l.order_key];
    r.order_key = l.order_key;
    r.order_date = it->second->order_date;
    r.ship_priority = it->second->ship_priority;
    r.revenue += l.extended_price * (1.0 - l.discount);
  }
  std::vector<Q3Row> expect;
  for (const auto& [key, r] : by_order) {
    expect.push_back(r);
  }
  std::sort(expect.begin(), expect.end(), [](const Q3Row& a, const Q3Row& b) {
    return a.revenue != b.revenue ? a.revenue > b.revenue : a.order_key < b.order_key;
  });
  expect.resize(std::min(expect.size(), top_n));
  ASSERT_FALSE(expect.empty());
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i].order_key, expect[i].order_key);
    EXPECT_EQ(got[i].order_date, expect[i].order_date);
    EXPECT_EQ(got[i].ship_priority, expect[i].ship_priority);
    EXPECT_NEAR(got[i].revenue, expect[i].revenue, kRel * expect[i].revenue);
  }
}

void ExpectQ10MatchesOracle(const std::vector<Q10Row>& got, const Tables& t) {
  const int date_start = kTpchMaxDate / 3;
  const size_t top_n = 20;
  std::map<int, int> cust_of;
  for (const Order& o : t.orders) {
    cust_of[o.order_key] = o.cust_key;
  }
  std::map<int, Q10Row> by_cust;
  for (const LineItem& l : t.lines) {
    if (l.return_flag != 1 || l.ship_date < date_start || l.ship_date >= date_start + 90) {
      continue;
    }
    Q10Row& r = by_cust[cust_of.at(l.order_key)];
    r.cust_key = cust_of.at(l.order_key);
    r.revenue += l.extended_price * (1.0 - l.discount);
    r.returned_lines += 1;
  }
  std::vector<Q10Row> expect;
  for (const auto& [key, r] : by_cust) {
    expect.push_back(r);
  }
  std::sort(expect.begin(), expect.end(), [](const Q10Row& a, const Q10Row& b) {
    return a.revenue != b.revenue ? a.revenue > b.revenue : a.cust_key < b.cust_key;
  });
  expect.resize(std::min(expect.size(), top_n));
  ASSERT_FALSE(expect.empty());
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i].cust_key, expect[i].cust_key);
    EXPECT_EQ(got[i].returned_lines, expect[i].returned_lines);
    EXPECT_NEAR(got[i].revenue, expect[i].revenue, kRel * expect[i].revenue);
  }
}

void ExpectQ12MatchesOracle(const std::vector<Q12Row>& got, const Tables& t) {
  std::map<int, int> priority_of;
  for (const Order& o : t.orders) {
    priority_of[o.order_key] = o.ship_priority;
  }
  std::map<int, Q12Row> expect;
  for (const LineItem& l : t.lines) {
    if (l.ship_date < 0 || l.ship_date >= 365) {
      continue;
    }
    Q12Row& r = expect[priority_of.at(l.order_key)];
    r.ship_priority = priority_of.at(l.order_key);
    r.high_line_count += l.line_status == 1 ? 1 : 0;
    r.low_line_count += l.line_status == 0 ? 1 : 0;
  }
  ASSERT_EQ(got.size(), expect.size());
  size_t i = 0;
  for (const auto& [priority, ref] : expect) {
    EXPECT_EQ(got[i].ship_priority, priority);
    EXPECT_EQ(got[i].high_line_count, ref.high_line_count);
    EXPECT_EQ(got[i].low_line_count, ref.low_line_count);
    ++i;
  }
}

void ExpectQ18MatchesOracle(const std::vector<Q18Row>& got, const Tables& t) {
  const double threshold = 100.0;
  const size_t top_n = 20;
  std::map<int, double> qty;
  for (const LineItem& l : t.lines) {
    qty[l.order_key] += l.quantity;
  }
  std::vector<Q18Row> expect;
  for (const Order& o : t.orders) {
    if (qty[o.order_key] > threshold) {
      expect.push_back(Q18Row{o.order_key, o.cust_key, o.total_price, qty[o.order_key]});
    }
  }
  std::sort(expect.begin(), expect.end(), [](const Q18Row& a, const Q18Row& b) {
    return a.total_price != b.total_price ? a.total_price > b.total_price
                                          : a.order_key < b.order_key;
  });
  expect.resize(std::min(expect.size(), top_n));
  ASSERT_FALSE(expect.empty());
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i].order_key, expect[i].order_key);
    EXPECT_EQ(got[i].cust_key, expect[i].cust_key);
    EXPECT_EQ(got[i].total_price, expect[i].total_price);
    EXPECT_EQ(got[i].sum_quantity, expect[i].sum_quantity);  // integral quantities
  }
}

void ExpectMatchesOracles(const Answers& a, const Tables& t) {
  ExpectQ1MatchesOracle(a.q1, t);
  ExpectQ3MatchesOracle(a.q3, t);
  ExpectQ10MatchesOracle(a.q10, t);
  ExpectQ12MatchesOracle(a.q12, t);
  ExpectQ18MatchesOracle(a.q18, t);
}

// Revoking half the cluster drops half the cached table partitions; the
// narrow plans recompute them on the replacements and answer the same,
// bit for bit.
TEST(TpchPlanTest, QueriesMatchOraclesBeforeAndAfterRevokingHalf) {
  for (int partitions : {8, 6}) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    EngineHarness h;
    auto db = TpchDatabase::Load(h.ctx(), PlanDb(partitions));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    const Tables tables = CollectTables(*db);
    ASSERT_FALSE(tables.lines.empty());

    const Answers fault_free = RunAll(*db);
    ExpectMatchesOracles(fault_free, tables);

    const uint64_t recomputed = h.ctx().counters().partitions_recomputed.load();
    h.RevokeNodes(static_cast<int>(h.node_ids().size()) / 2);
    h.AddNode();
    h.AddNode();
    const Answers after = RunAll(*db);
    EXPECT_GT(h.ctx().counters().partitions_recomputed.load(), recomputed);
    ExpectMatchesOracles(after, tables);
    ExpectIdentical(fault_free, after);
  }
}

}  // namespace
}  // namespace flint
