// Shows that every correctness check of the benchmark passes on an honest
// result and fails on a tampered one. Exit code 0 when all behave.
//
//   tellbench_checks_test      (or: python3 perfbench/run.py --selftest)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "checks.h"
#include "workload/tpcc/tpcc_driver.h"
#include "workload/tpcc/tpcc_loader.h"

namespace {

using tell::Status;
namespace tpcc = tell::tpcc;
namespace col = tell::tpcc::col;
using tellbench::Check;

int failures = 0;

void Expect(const Check& check, bool want_ok, const char* what) {
  const bool good = check.ok == want_ok;
  std::printf("%s %-32s %-30s -> %s%s%s\n", good ? "ok  " : "FAIL",
              check.name.c_str(), what, check.ok ? "pass" : "fail",
              check.detail.empty() ? "" : ": ", check.detail.c_str());
  if (!good) ++failures;
}

void Require(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

/// Adds `delta` to one numeric column of the row under `key`, in its own
/// transaction: the tamper tool.
template <typename T>
void Tamper(tell::tx::Session* session, tell::tx::TableHandle* table,
            const std::vector<tell::schema::Value>& key, uint32_t column,
            T delta) {
  tell::tx::Transaction txn(session);
  Require(txn.Begin(), "begin");
  auto row = txn.ReadByKeyWithRid(table, key);
  Require(row.status(), "read");
  if (!row->has_value()) {
    std::fprintf(stderr, "tamper: row not found\n");
    std::exit(1);
  }
  tell::schema::Tuple tuple = (*row)->second;
  if constexpr (std::is_same_v<T, double>) {
    tuple.Set(column, tuple.GetDouble(column) + delta);
  } else {
    tuple.Set(column, tuple.GetInt(column) + delta);
  }
  Require(txn.Update(table, (*row)->first, tuple), "update");
  Require(txn.Commit(), "commit");
}

tellbench::TpccState Read(tell::tx::Session* session,
                          const tpcc::TpccTables& tables) {
  auto state = tellbench::ReadTpccState(session, tables);
  Require(state.status(), "read state");
  return *state;
}

}  // namespace

int main() {
  // A small population and a short executor run, so the checks see a
  // database the TPC-C mix has written to.
  tpcc::TpccScale scale;
  scale.warehouses = 2;
  scale.customers_per_district = 8;
  scale.items = 50;
  scale.initial_orders_per_district = 8;
  tell::db::TellDb db(tell::db::TellDbOptions{});
  Require(tpcc::CreateTpccTables(&db), "create");
  Require(tpcc::LoadTpcc(&db, scale, 7), "load");
  auto session = db.OpenSession(0, 100);
  auto tables = tpcc::OpenTpccTables(&db, 0);
  Require(tables.status(), "open tables");
  const tellbench::TpccState before = Read(session.get(), *tables);

  tpcc::TellBackend backend(&db);
  tpcc::DriverOptions run_options;
  run_options.scale = scale;
  run_options.num_workers = 2;
  run_options.duration_virtual_ms = 40;
  run_options.executor_threads = 1;
  run_options.pin_cores = false;
  auto result = tpcc::RunTpcc(&backend, run_options);
  Require(result.status(), "RunTpcc");
  const uint64_t new_orders = result->committed_new_order;
  const tellbench::TpccState after = Read(session.get(), *tables);
  std::printf("ran %llu committed transactions (%llu NewOrders)\n",
              static_cast<unsigned long long>(result->committed),
              static_cast<unsigned long long>(new_orders));

  using namespace tellbench;
  Expect(CheckDistrictOrderIds(after), true, "after the run");
  Tamper<int64_t>(session.get(), tables->district, {int64_t{1}, int64_t{1}},
                  col::kDNextOId, 1);
  Expect(CheckDistrictOrderIds(Read(session.get(), *tables)), false,
         "d_next_o_id + 1");
  Tamper<int64_t>(session.get(), tables->district, {int64_t{1}, int64_t{1}},
                  col::kDNextOId, -1);
  Expect(CheckDistrictOrderIds(Read(session.get(), *tables)), true,
         "restored");

  Expect(CheckWarehouseYtd(after), true, "after the run");
  Tamper<double>(session.get(), tables->warehouse, {int64_t{2}}, col::kWYtd,
                 0.01);
  Expect(CheckWarehouseYtd(Read(session.get(), *tables)), false,
         "W_YTD + 0.01");
  Tamper<double>(session.get(), tables->warehouse, {int64_t{2}}, col::kWYtd,
                 -0.01);
  Expect(CheckWarehouseYtd(Read(session.get(), *tables)), true, "restored");

  const uint64_t orders_before = before.Rows("orders");
  const uint64_t orders_after = after.Rows("orders");
  Expect(CheckNewOrderGrowth(orders_before, orders_after, new_orders), true,
         "after the run");
  Expect(CheckNewOrderGrowth(orders_before, orders_after, new_orders + 1),
         false, "one NewOrder too many");
  Expect(CheckNewOrderGrowth(orders_before, orders_after + 1, new_orders),
         false, "one order row too many");

  auto count =
      db.AutoCommitSql(session.get(), "SELECT COUNT(*) FROM order_line");
  Require(count.status(), "COUNT(*)");
  const int64_t sql_count = count->rows.at(0).GetInt(0);
  const uint64_t native = after.Rows("order_line");
  Expect(CheckOrderLineFinal(sql_count, native), true, "after the run");
  Expect(CheckOrderLineFinal(sql_count + 1, native), false, "SQL count + 1");
  Expect(CheckOrderLineFinal(sql_count, native - 1), false,
         "native count - 1");
  Expect(CheckOrderLineMonotone({sql_count - 5, sql_count, sql_count}), true,
         "non-decreasing");
  Expect(CheckOrderLineMonotone({sql_count, sql_count - 1}), false,
         "a count fell");
  Expect(CheckOrderLineMonotone({}), false, "no count");

  Expect(CheckPointRows(64, 64), true, "every row found");
  Expect(CheckPointRows(64, 63), false, "one row missing");
  Expect(CheckCommittedAgree(result->committed, result->merged.committed),
         true, "after the run");
  Expect(CheckCommittedAgree(result->committed + 1, result->merged.committed),
         false, "one commit too many");

  std::printf("%s\n", failures == 0 ? "all checks behave" : "CHECKS MISBEHAVE");
  return failures == 0 ? 0 : 1;
}
