#include "src/workloads/tpch.h"

#include <algorithm>
#include <optional>

#include "src/common/rng.h"

namespace flint {

namespace {

// The generator stream of one row: a function of (seed, table, key) alone,
// so a row is the same whichever partition builds it.
Rng RowRng(uint64_t seed, uint64_t table, int key) {
  return Rng(seed ^ (table << 56) ^ (static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ULL));
}

// Partition `part` of a table of keys [0, count) bucketed by key: exactly
// the keys KeyPartitionOf routes to `part`, ascending.
std::vector<int> KeysOfPartition(int part, int parts, int count) {
  std::vector<int> keys;
  keys.reserve(static_cast<size_t>(count / parts + 1));
  for (int k = 0; k < count; ++k) {
    if (KeyPartitionOf(k, parts) == part) {
      keys.push_back(k);
    }
  }
  return keys;
}

constexpr uint64_t kCustomerTable = 1;
constexpr uint64_t kOrdersTable = 2;
constexpr uint64_t kLineitemTable = 3;

}  // namespace

Result<TpchDatabase> TpchDatabase::Load(FlintContext& ctx, const TpchParams& params) {
  if (params.num_customers <= 0 || params.num_orders <= 0 || params.partitions <= 0) {
    return InvalidArgument("bad TPC-H params");
  }
  TpchDatabase db;
  db.ctx_ = &ctx;
  db.params_ = params;

  const int parts = params.partitions;
  const int orders = params.num_orders;
  const int customers = params.num_customers;
  const int max_lines = params.max_lines_per_order;
  const uint64_t seed = params.seed;

  db.customer_ = Generate(
      &ctx, parts,
      [customers, parts, seed](int part) {
        const std::vector<int> keys = KeysOfPartition(part, parts, customers);
        std::vector<Customer> rows;
        rows.reserve(keys.size());
        for (int c : keys) {
          Rng rng = RowRng(seed, kCustomerTable, c);
          Customer row;
          row.cust_key = c;
          row.mkt_segment = static_cast<int>(rng.UniformInt(5));
          rows.push_back(row);
        }
        return rows;
      },
      "tpch-customer");

  db.orders_ = Generate(
      &ctx, parts,
      [orders, customers, parts, seed](int part) {
        const std::vector<int> keys = KeysOfPartition(part, parts, orders);
        std::vector<Order> rows;
        rows.reserve(keys.size());
        for (int o : keys) {
          Rng rng = RowRng(seed, kOrdersTable, o);
          Order row;
          row.order_key = o;
          row.cust_key = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(customers)));
          row.order_date = static_cast<int>(rng.UniformInt(kTpchMaxDate));
          row.ship_priority = static_cast<int>(rng.UniformInt(2));
          row.total_price = rng.Uniform(1000.0, 100000.0);
          rows.push_back(row);
        }
        return rows;
      },
      "tpch-orders");

  db.lineitem_ = Generate(
      &ctx, parts,
      [orders, max_lines, parts, seed](int part) {
        const std::vector<int> keys = KeysOfPartition(part, parts, orders);
        std::vector<LineItem> rows;
        rows.reserve(keys.size() * static_cast<size_t>(max_lines + 1) / 2);
        for (int o : keys) {
          Rng rng = RowRng(seed, kLineitemTable, o);
          const int nlines = 1 + static_cast<int>(rng.UniformInt(static_cast<uint64_t>(max_lines)));
          for (int l = 0; l < nlines; ++l) {
            LineItem row;
            row.order_key = o;
            row.line_number = l;
            row.quantity = 1.0 + static_cast<double>(rng.UniformInt(50));
            row.extended_price = rng.Uniform(100.0, 50000.0);
            row.discount = 0.01 * static_cast<double>(rng.UniformInt(11));
            row.tax = 0.01 * static_cast<double>(rng.UniformInt(9));
            row.return_flag = static_cast<int>(rng.UniformInt(3));
            row.line_status = static_cast<int>(rng.UniformInt(2));
            row.ship_date = static_cast<int>(rng.UniformInt(kTpchMaxDate));
            rows.push_back(row);
          }
        }
        return rows;
      },
      "tpch-lineitem");

  // Persist in memory and force materialization (the paper: "de-serializes
  // and re-partitions the raw files ... then persists them in memory"). The
  // generators emit each table already partitioned by its join key, which
  // is what the paper's re-partitioning buys: queries declare it
  // (KeyPartitioned) and join or aggregate on it without a shuffle.
  db.customer_.Cache();
  db.orders_.Cache();
  db.lineitem_.Cache();
  FLINT_RETURN_IF_ERROR(db.customer_.Materialize());
  FLINT_RETURN_IF_ERROR(db.orders_.Materialize());
  FLINT_ASSIGN_OR_RETURN(db.num_lineitems_, db.lineitem_.Count());
  return db;
}

Result<std::vector<Q1Row>> TpchDatabase::RunQ1(int cutoff_date) const {
  auto grouped = ReduceByKey(
      lineitem_
          .Filter([cutoff_date](const LineItem& l) { return l.ship_date <= cutoff_date; },
                  "q1-filter")
          .Map(
              [](const LineItem& l) {
                Q1Row agg;
                agg.return_flag = l.return_flag;
                agg.line_status = l.line_status;
                agg.sum_qty = l.quantity;
                agg.sum_base_price = l.extended_price;
                agg.sum_disc_price = l.extended_price * (1.0 - l.discount);
                agg.sum_charge = l.extended_price * (1.0 - l.discount) * (1.0 + l.tax);
                agg.count = 1;
                return std::make_pair(l.return_flag * 2 + l.line_status, agg);
              },
              "q1-project"),
      params_.partitions,
      [](const Q1Row& a, const Q1Row& b) {
        Q1Row out = a;
        out.sum_qty += b.sum_qty;
        out.sum_base_price += b.sum_base_price;
        out.sum_disc_price += b.sum_disc_price;
        out.sum_charge += b.sum_charge;
        out.count += b.count;
        return out;
      },
      "q1-groupby");
  FLINT_ASSIGN_OR_RETURN(auto rows, grouped.Collect());
  std::vector<Q1Row> out;
  out.reserve(rows.size());
  for (auto& [key, agg] : rows) {
    out.push_back(agg);
  }
  std::sort(out.begin(), out.end(), [](const Q1Row& a, const Q1Row& b) {
    return std::tie(a.return_flag, a.line_status) < std::tie(b.return_flag, b.line_status);
  });
  return out;
}

Result<std::vector<Q3Row>> TpchDatabase::RunQ3(int segment, int date, int top_n) const {
  // customer(segment) |><| orders(before date) keyed by custkey. customer
  // is bucketed by cust_key, so only the orders side is shuffled.
  auto cust_keyed = KeyPartitioned(
      customer_
          .Filter([segment](const Customer& c) { return c.mkt_segment == segment; },
                  "q3-cust-filter")
          .Map([](const Customer& c) { return std::make_pair(c.cust_key, 1); }, "q3-cust-key"),
      "q3-cust-by-key");
  auto orders_keyed =
      orders_
          .Filter([date](const Order& o) { return o.order_date < date; }, "q3-ord-filter")
          .Map([](const Order& o) { return std::make_pair(o.cust_key, o); }, "q3-ord-key");
  auto co = Join(cust_keyed, orders_keyed, params_.partitions, "q3-cust-ord");
  // Re-key by order for the lineitem join.
  auto co_by_order = co.Map(
      [](const std::pair<int, std::pair<int, Order>>& row) {
        const Order& o = row.second.second;
        return std::make_pair(o.order_key, std::make_pair(o.order_date, o.ship_priority));
      },
      "q3-rekey");
  auto line_keyed = KeyPartitioned(
      lineitem_
          .Filter([date](const LineItem& l) { return l.ship_date > date; }, "q3-line-filter")
          .Map(
              [](const LineItem& l) {
                return std::make_pair(l.order_key, l.extended_price * (1.0 - l.discount));
              },
              "q3-line-key"),
      "q3-line-by-order");
  // Only the re-keyed side is shuffled: lineitem is read in place.
  auto col = Join(co_by_order, line_keyed, params_.partitions, "q3-ord-line");
  // Group by order, summing revenue; the join output is already partitioned
  // by order, so the group-by is narrow. The key fills order_key below.
  auto revenue = ReduceByKey(
      MapValues(
          col,
          [](const std::pair<std::pair<int, int>, double>& v) {
            Q3Row r;
            r.order_date = v.first.first;
            r.ship_priority = v.first.second;
            r.revenue = v.second;
            return r;
          },
          "q3-project"),
      params_.partitions,
      [](const Q3Row& a, const Q3Row& b) {
        Q3Row out = a;
        out.revenue += b.revenue;
        return out;
      },
      "q3-groupby");
  FLINT_ASSIGN_OR_RETURN(auto rows, revenue.Collect());
  std::vector<Q3Row> out;
  out.reserve(rows.size());
  for (auto& [key, r] : rows) {
    r.order_key = key;
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(), [](const Q3Row& a, const Q3Row& b) {
    if (a.revenue != b.revenue) {
      return a.revenue > b.revenue;
    }
    return a.order_key < b.order_key;
  });
  if (static_cast<int>(out.size()) > top_n) {
    out.resize(static_cast<size_t>(top_n));
  }
  return out;
}

Result<std::vector<Q10Row>> TpchDatabase::RunQ10(int date_start, int top_n) const {
  // Returned items shipped in the window, keyed by order.
  auto returned = KeyPartitioned(
      lineitem_
          .Filter(
              [date_start](const LineItem& l) {
                return l.return_flag == 1 && l.ship_date >= date_start &&
                       l.ship_date < date_start + 90;
              },
              "q10-filter")
          .Map(
              [](const LineItem& l) {
                return std::make_pair(
                    l.order_key, std::make_pair(l.extended_price * (1.0 - l.discount), int64_t{1}));
              },
              "q10-project"),
      "q10-line-by-order");
  auto orders_keyed = KeyPartitioned(
      orders_.Map([](const Order& o) { return std::make_pair(o.order_key, o.cust_key); },
                  "q10-ord-key"),
      "q10-ord-by-order");
  // Both sides are partitioned by order: the join is narrow.
  auto joined = Join(returned, orders_keyed, params_.partitions, "q10-join");
  // Re-key by customer and aggregate lost revenue.
  auto by_customer = ReduceByKey(
      joined.Map(
          [](const std::pair<int, std::pair<std::pair<double, int64_t>, int>>& row) {
            Q10Row r;
            r.cust_key = row.second.second;
            r.revenue = row.second.first.first;
            r.returned_lines = row.second.first.second;
            return std::make_pair(r.cust_key, r);
          },
          "q10-rekey"),
      params_.partitions,
      [](const Q10Row& a, const Q10Row& b) {
        Q10Row out = a;
        out.revenue += b.revenue;
        out.returned_lines += b.returned_lines;
        return out;
      },
      "q10-groupby");
  FLINT_ASSIGN_OR_RETURN(auto rows, by_customer.Collect());
  std::vector<Q10Row> out;
  out.reserve(rows.size());
  for (auto& [k, r] : rows) {
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(), [](const Q10Row& a, const Q10Row& b) {
    if (a.revenue != b.revenue) {
      return a.revenue > b.revenue;
    }
    return a.cust_key < b.cust_key;
  });
  if (static_cast<int>(out.size()) > top_n) {
    out.resize(static_cast<size_t>(top_n));
  }
  return out;
}

Result<std::vector<Q12Row>> TpchDatabase::RunQ12(int year_start) const {
  auto line_keyed = KeyPartitioned(
      lineitem_
          .Filter(
              [year_start](const LineItem& l) {
                return l.ship_date >= year_start && l.ship_date < year_start + 365;
              },
              "q12-filter")
          .Map([](const LineItem& l) { return std::make_pair(l.order_key, l.line_status); },
               "q12-project"),
      "q12-line-by-order");
  auto orders_keyed = KeyPartitioned(
      orders_.Map([](const Order& o) { return std::make_pair(o.order_key, o.ship_priority); },
                  "q12-ord"),
      "q12-ord-by-order");
  auto joined = Join(line_keyed, orders_keyed, params_.partitions, "q12-join");
  auto counted = ReduceByKey(
      joined.Map(
          [](const std::pair<int, std::pair<int, int>>& row) {
            Q12Row r;
            r.ship_priority = row.second.second;
            r.high_line_count = row.second.first == 1 ? 1 : 0;
            r.low_line_count = row.second.first == 0 ? 1 : 0;
            return std::make_pair(r.ship_priority, r);
          },
          "q12-rekey"),
      params_.partitions,
      [](const Q12Row& a, const Q12Row& b) {
        Q12Row out = a;
        out.high_line_count += b.high_line_count;
        out.low_line_count += b.low_line_count;
        return out;
      },
      "q12-groupby");
  FLINT_ASSIGN_OR_RETURN(auto rows, counted.Collect());
  std::vector<Q12Row> out;
  out.reserve(rows.size());
  for (auto& [k, r] : rows) {
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const Q12Row& a, const Q12Row& b) { return a.ship_priority < b.ship_priority; });
  return out;
}

Result<std::vector<Q18Row>> TpchDatabase::RunQ18(double qty_threshold, int top_n) const {
  // Total quantity per order; keep the big ones.
  // Every step stays on lineitem's and orders' order partitioning: no shuffle.
  auto qty = ReduceByKey(
      KeyPartitioned(
          lineitem_.Map([](const LineItem& l) { return std::make_pair(l.order_key, l.quantity); },
                        "q18-project"),
          "q18-line-by-order"),
      params_.partitions, [](double a, double b) { return a + b; }, "q18-sumqty");
  auto big = qty.Filter(
      [qty_threshold](const std::pair<int, double>& kv) { return kv.second > qty_threshold; },
      "q18-filter");
  auto orders_keyed = KeyPartitioned(
      orders_.Map(
          [](const Order& o) {
            return std::make_pair(o.order_key, std::make_pair(o.cust_key, o.total_price));
          },
          "q18-ord"),
      "q18-ord-by-order");
  auto joined = Join(big, orders_keyed, params_.partitions, "q18-join");
  FLINT_ASSIGN_OR_RETURN(auto rows, joined.Collect());
  std::vector<Q18Row> out;
  out.reserve(rows.size());
  for (const auto& [order_key, payload] : rows) {
    Q18Row r;
    r.order_key = order_key;
    r.sum_quantity = payload.first;
    r.cust_key = payload.second.first;
    r.total_price = payload.second.second;
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(), [](const Q18Row& a, const Q18Row& b) {
    if (a.total_price != b.total_price) {
      return a.total_price > b.total_price;
    }
    return a.order_key < b.order_key;
  });
  if (static_cast<int>(out.size()) > top_n) {
    out.resize(static_cast<size_t>(top_n));
  }
  return out;
}

Result<double> TpchDatabase::RunQ6(int year_start, int year_end, double disc_mid,
                                   double qty_max) const {
  auto revenue = lineitem_
                     .Filter(
                         [=](const LineItem& l) {
                           return l.ship_date >= year_start && l.ship_date < year_end &&
                                  l.discount >= disc_mid - 0.011 &&
                                  l.discount <= disc_mid + 0.011 && l.quantity < qty_max;
                         },
                         "q6-filter")
                     .Map([](const LineItem& l) { return l.extended_price * l.discount; },
                          "q6-project");
  FLINT_ASSIGN_OR_RETURN(std::optional<double> sum,
                         revenue.MaybeReduce([](double a, double b) { return a + b; }));
  return sum.value_or(0.0);
}

}  // namespace flint
