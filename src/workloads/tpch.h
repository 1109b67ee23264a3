// TPC-H mini: Spark-as-an-in-memory-database, the paper's interactive BIDI
// workload. Synthetic dbgen-style generators populate lineitem / orders /
// customer RDDs that are persisted in memory once (TpchDatabase::Load);
// queries then execute against the cached RDDs, so the latency of a query
// after a revocation is dominated by recomputing lost partitions — exactly
// the effect Fig 9 measures.
//
// Layout: each table is generated already partitioned by its join key, the
// layout the paper's load-time re-partitioning produces. customer is
// bucketed by cust_key, orders and lineitem by order_key: partition p holds
// exactly the keys KeyPartitionOf (typed_rdd.h) routes to p, in key order,
// and each row is a function of (seed, key) alone. The queries declare the
// layout (KeyPartitioned, which checks it), so joins and aggregations on
// those keys read the cached tables in place.
//
// Queries implemented (with the paper's "short" and "medium" classes), and
// the shuffles each runs:
//   Q6  — filtered scan + global aggregate (none)                [short]
//   Q1  — scan + group-by aggregate (one)                        [short/medium]
//   Q3  — 3-way join + group-by + top-N (two)                    [medium]
//   Q10 — returned-item revenue by customer, top-N (one)         [medium]
//   Q12 — shipping-priority counts by line status, a year (one)  [short/medium]
//   Q18 — large-quantity orders, group + filter + join (none)    [medium]

#ifndef SRC_WORKLOADS_TPCH_H_
#define SRC_WORKLOADS_TPCH_H_

#include <tuple>
#include <vector>

#include "src/common/status.h"
#include "src/engine/typed_rdd.h"

namespace flint {

// Dates are integer day numbers; the generator spreads them over ~2 years.
inline constexpr int kTpchMaxDate = 730;

struct LineItem {
  int order_key = 0;
  int line_number = 0;
  double quantity = 0.0;
  double extended_price = 0.0;
  double discount = 0.0;  // [0, 0.1]
  double tax = 0.0;
  int return_flag = 0;  // 0=N, 1=R, 2=A
  int line_status = 0;  // 0=O, 1=F
  int ship_date = 0;
};

struct Order {
  int order_key = 0;
  int cust_key = 0;
  int order_date = 0;
  int ship_priority = 0;
  double total_price = 0.0;
};

struct Customer {
  int cust_key = 0;
  int mkt_segment = 0;  // [0, 5)
};

struct TpchParams {
  int num_customers = 300;
  int num_orders = 2000;
  int max_lines_per_order = 5;
  int partitions = 10;
  uint64_t seed = 21;
};

struct Q1Row {
  int return_flag = 0;
  int line_status = 0;
  double sum_qty = 0.0;
  double sum_base_price = 0.0;
  double sum_disc_price = 0.0;
  double sum_charge = 0.0;
  int64_t count = 0;
};

struct Q3Row {
  int order_key = 0;
  double revenue = 0.0;
  int order_date = 0;
  int ship_priority = 0;
};

struct Q10Row {
  int cust_key = 0;
  double revenue = 0.0;  // lost revenue from returned items
  int64_t returned_lines = 0;
};

struct Q12Row {
  int ship_priority = 0;        // orders.ship_priority bucket
  int64_t high_line_count = 0;  // line_status == F (urgent-handled)
  int64_t low_line_count = 0;   // line_status == O
};

struct Q18Row {
  int order_key = 0;
  int cust_key = 0;
  double total_price = 0.0;
  double sum_quantity = 0.0;
};

class TpchDatabase {
 public:
  // Generates the three tables, each already bucketed by its join key (see
  // the layout note above), and persists them in cluster memory; the load
  // itself is a set of jobs (counts force materialization).
  static Result<TpchDatabase> Load(FlintContext& ctx, const TpchParams& params);

  // Q1: pricing summary report for lineitems shipped before `cutoff_date`.
  Result<std::vector<Q1Row>> RunQ1(int cutoff_date = kTpchMaxDate - 90) const;

  // Q3: top-`top_n` unshipped orders by revenue for one market segment.
  Result<std::vector<Q3Row>> RunQ3(int segment = 1, int date = kTpchMaxDate / 2,
                                   int top_n = 10) const;

  // Q6: forecast revenue change: sum(extprice * disc) over a filtered scan.
  Result<double> RunQ6(int year_start = 0, int year_end = 365, double disc_mid = 0.05,
                       double qty_max = 24.0) const;

  // Q10: top-`top_n` customers by revenue lost to returned items shipped in
  // [date_start, date_start + 90).
  Result<std::vector<Q10Row>> RunQ10(int date_start = kTpchMaxDate / 3, int top_n = 20) const;

  // Q12: per ship-priority bucket, counts of urgent (line_status F) and
  // other (O) lineitems shipped within [year_start, year_start + 365).
  Result<std::vector<Q12Row>> RunQ12(int year_start = 0) const;

  // Q18: orders whose total lineitem quantity exceeds `qty_threshold`,
  // sorted by total price, top-`top_n`.
  Result<std::vector<Q18Row>> RunQ18(double qty_threshold = 100.0, int top_n = 20) const;

  const TypedRdd<LineItem>& lineitem() const { return lineitem_; }
  const TypedRdd<Order>& orders() const { return orders_; }
  const TypedRdd<Customer>& customer() const { return customer_; }
  uint64_t num_lineitems() const { return num_lineitems_; }

 private:
  TpchDatabase() = default;

  FlintContext* ctx_ = nullptr;
  TpchParams params_;
  TypedRdd<LineItem> lineitem_;
  TypedRdd<Order> orders_;
  TypedRdd<Customer> customer_;
  uint64_t num_lineitems_ = 0;
};

}  // namespace flint

#endif  // SRC_WORKLOADS_TPCH_H_
