#include "checks.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace tellbench {

using tell::Result;
using tell::schema::Value;
namespace col = tell::tpcc::col;

namespace {

Check Make(std::string name, bool ok, std::string detail) {
  return Check{std::move(name), ok, ok ? "" : std::move(detail)};
}

}  // namespace

uint64_t TpccState::Rows(const std::string& table) const {
  for (const auto& [name, rows] : row_counts) {
    if (name == table) return rows;
  }
  return 0;
}

Result<uint64_t> CountRows(tell::tx::Session* session,
                           tell::tx::TableHandle* table) {
  tell::tx::Transaction txn(session);
  TELL_RETURN_NOT_OK(txn.Begin());
  TELL_ASSIGN_OR_RETURN(auto rows, txn.ScanIndex(table, -1, {}, {}, 0));
  TELL_RETURN_NOT_OK(txn.Commit());
  return static_cast<uint64_t>(rows.size());
}

Result<TpccState> ReadTpccState(tell::tx::Session* session,
                                const tell::tpcc::TpccTables& tables) {
  tell::tx::Transaction txn(session);
  TELL_RETURN_NOT_OK(txn.Begin());
  TpccState state;
  auto scan_all = [&](tell::tx::TableHandle* table) {
    return txn.ScanIndex(table, /*index=*/-1, {}, {}, /*limit=*/0);
  };

  TELL_ASSIGN_OR_RETURN(auto warehouses, scan_all(tables.warehouse));
  TELL_ASSIGN_OR_RETURN(auto districts, scan_all(tables.district));
  TELL_ASSIGN_OR_RETURN(auto orders, scan_all(tables.orders));

  std::map<std::pair<int64_t, int64_t>, int64_t> max_o_id;
  for (const auto& [rid, order] : orders) {
    int64_t& current =
        max_o_id[{order.GetInt(col::kOWId), order.GetInt(col::kODId)}];
    current = std::max(current, order.GetInt(col::kOId));
  }
  std::map<int64_t, double> district_ytd;
  for (const auto& [rid, district] : districts) {
    const int64_t w = district.GetInt(col::kDWId);
    const int64_t d = district.GetInt(col::kDId);
    state.district_next_vs_max.emplace_back(
        district.GetInt(col::kDNextOId) - 1, max_o_id[{w, d}]);
    district_ytd[w] += district.GetDouble(col::kDYtd);
  }
  for (const auto& [rid, warehouse] : warehouses) {
    state.warehouse_ytd_vs_sum.emplace_back(
        warehouse.GetDouble(col::kWYtd),
        district_ytd[warehouse.GetInt(col::kWId)]);
  }

  state.row_counts = {{"warehouse", warehouses.size()},
                      {"district", districts.size()},
                      {"orders", orders.size()}};
  const std::pair<const char*, tell::tx::TableHandle*> rest[] = {
      {"customer", tables.customer},     {"history", tables.history},
      {"new_order", tables.new_order},   {"order_line", tables.order_line},
      {"item", tables.item},             {"stock", tables.stock}};
  for (const auto& [name, table] : rest) {
    TELL_ASSIGN_OR_RETURN(auto rows, scan_all(table));
    state.row_counts.emplace_back(name, rows.size());
  }
  TELL_RETURN_NOT_OK(txn.Commit());
  return state;
}

Check CheckDistrictOrderIds(const TpccState& state) {
  for (const auto& [next_minus_one, max_id] : state.district_next_vs_max) {
    if (next_minus_one != max_id) {
      return Make("tpcc.district_next_o_id", false,
                  "d_next_o_id-1=" + std::to_string(next_minus_one) +
                      " but max(o_id)=" + std::to_string(max_id));
    }
  }
  return Make("tpcc.district_next_o_id", !state.district_next_vs_max.empty(),
              "no districts read");
}

Check CheckWarehouseYtd(const TpccState& state) {
  for (const auto& [w_ytd, d_sum] : state.warehouse_ytd_vs_sum) {
    // Amounts are whole cents; half a cent absorbs the rounding of the
    // double sums and still catches any one payment booked on one side.
    if (std::fabs(w_ytd - d_sum) > 0.005) {
      return Make("tpcc.warehouse_ytd", false,
                  "W_YTD=" + std::to_string(w_ytd) +
                      " but sum(D_YTD)=" + std::to_string(d_sum));
    }
  }
  return Make("tpcc.warehouse_ytd", !state.warehouse_ytd_vs_sum.empty(),
              "no warehouses read");
}

Check CheckNewOrderGrowth(uint64_t orders_before, uint64_t orders_after,
                          uint64_t committed_new_orders) {
  return Make("tpcc.new_order_growth",
              orders_after >= orders_before &&
                  orders_after - orders_before == committed_new_orders,
              "orders grew " + std::to_string(orders_before) + " -> " +
                  std::to_string(orders_after) + " for " +
                  std::to_string(committed_new_orders) +
                  " committed NewOrders");
}

Check CheckOrderLineMonotone(const std::vector<int64_t>& counts) {
  for (size_t i = 1; i < counts.size(); ++i) {
    if (counts[i] < counts[i - 1]) {
      return Make("sql.order_line_count_monotone", false,
                  "COUNT(*) fell " + std::to_string(counts[i - 1]) + " -> " +
                      std::to_string(counts[i]));
    }
  }
  return Make("sql.order_line_count_monotone", !counts.empty(),
              "no COUNT(*) query ran");
}

Check CheckOrderLineFinal(int64_t sql_count, uint64_t native_count) {
  return Make("sql.order_line_count_final",
              sql_count >= 0 &&
                  static_cast<uint64_t>(sql_count) == native_count,
              "SQL COUNT(*)=" + std::to_string(sql_count) +
                  " but native scan=" + std::to_string(native_count));
}

Check CheckPointRows(uint64_t statements, uint64_t one_row_results) {
  return Make("sql.point_select_one_row",
              statements > 0 && statements == one_row_results,
              std::to_string(one_row_results) + " of " +
                  std::to_string(statements) +
                  " point SELECTs returned exactly one row");
}

Check CheckCommittedAgree(uint64_t benchmark_committed,
                          uint64_t tx_committed) {
  return Make("tx.committed_agrees", benchmark_committed == tx_committed,
              "benchmark counted " + std::to_string(benchmark_committed) +
                  " commits, tx.committed=" + std::to_string(tx_committed));
}

}  // namespace tellbench
