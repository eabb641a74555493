// Correctness checks the benchmark runs after every round, through the
// public transaction API only. A failed check fails the run.
#ifndef TELL_PERFBENCH_CHECKS_H_
#define TELL_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/tell_db.h"
#include "workload/tpcc/tpcc_schema.h"

namespace tellbench {

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Row counts of the nine TPC-C tables, by native primary-index scans in one
/// snapshot, plus the per-district and per-warehouse facts the TPC-C
/// consistency checks compare.
struct TpccState {
  std::vector<std::pair<std::string, uint64_t>> row_counts;
  /// One entry per district: d_next_o_id - 1 and max(o_id) in `orders`.
  std::vector<std::pair<int64_t, int64_t>> district_next_vs_max;
  /// One entry per warehouse: W_YTD and the sum of its districts' D_YTD.
  std::vector<std::pair<double, double>> warehouse_ytd_vs_sum;

  uint64_t Rows(const std::string& table) const;
};

/// Rows of one table, by a native primary-index scan.
tell::Result<uint64_t> CountRows(tell::tx::Session* session,
                                 tell::tx::TableHandle* table);

/// Reads the state through a read-only transaction on `session`.
tell::Result<TpccState> ReadTpccState(tell::tx::Session* session,
                                      const tell::tpcc::TpccTables& tables);

/// TPC-C consistency condition 2: d_next_o_id - 1 = max(o_id) per district.
Check CheckDistrictOrderIds(const TpccState& state);
/// TPC-C consistency condition 1: W_YTD = sum(D_YTD) per warehouse.
Check CheckWarehouseYtd(const TpccState& state);
/// Every committed NewOrder inserted exactly one `orders` row.
Check CheckNewOrderGrowth(uint64_t orders_before, uint64_t orders_after,
                          uint64_t committed_new_orders);
/// SELECT COUNT(*) FROM order_line never decreased across the queries run.
Check CheckOrderLineMonotone(const std::vector<int64_t>& counts);
/// The SQL count after the run equals the native index scan's row count.
Check CheckOrderLineFinal(int64_t sql_count, uint64_t native_count);
/// Every primary-key point SELECT returned exactly one row.
Check CheckPointRows(uint64_t statements, uint64_t one_row_results);
/// The benchmark's committed count equals the transaction layer's
/// tx.committed.
Check CheckCommittedAgree(uint64_t benchmark_committed, uint64_t tx_committed);

}  // namespace tellbench

#endif  // TELL_PERFBENCH_CHECKS_H_
