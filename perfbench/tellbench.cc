// Tell's benchmark: closed-loop TPC-C and CH-benCHmark-style workloads
// driven through the public APIs (tpcc::RunTpcc, db::TellDb::AutoCommitSql,
// sql::Parse, sql::PlanStatement), with correctness checks after every round.
//
//   tellbench --workload tpcc_write|tpcc_read|ch_hybrid --seed N
//             --seconds S --trace 0|1 [--out DIR]
//   tellbench --selftest
//
// A run repeats rounds until S host seconds have passed. Each round builds a
// fresh 16-warehouse database, runs a fixed virtual horizon and checks the
// result, so every round does the same work on every commit: host throughput
// falls as the tables grow during a run, and a run length in host seconds
// would hand a faster build more, slower virtual time. Host metrics are
// medians over rounds (or percentiles over pooled samples); the last stdout
// line is the JSON result. --trace 1 reports per-layer metrics instead and
// writes a Chrome trace-event file. perfbench/README.md documents it all.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/random.h"
#include "db/tell_db.h"
#include "obs/metrics_registry.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "trace.h"
#include "workload/tpcc/tpcc_driver.h"
#include "workload/tpcc/tpcc_loader.h"

#ifndef TELLBENCH_BUILD_TYPE
#define TELLBENCH_BUILD_TYPE "unknown"
#endif

namespace tellbench {
namespace {

using tell::Result;
using tell::Status;
namespace db = tell::db;
namespace tpcc = tell::tpcc;

// ---------------------------------------------------------------------------
// Configuration

struct Config {
  std::string name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";

  tpcc::Mix mix = tpcc::Mix::kWriteIntensive;
  /// TPC-C sessions, each a fiber task on the executor.
  uint32_t sessions = 4;
  uint32_t executor_threads = 4;
  /// ch_hybrid: operator pushdown on, and the SQL session runs on PN 1
  /// concurrently with TPC-C.
  bool hybrid = false;
};

/// Virtual measurement interval of one round, per session.
constexpr uint64_t kVirtualMs = 400;

/// The 16-warehouse population of bench/bench_util.h's BenchScale, kept
/// here so that the benchmark's inputs change only with the benchmark.
tpcc::TpccScale BenchScale() {
  tpcc::TpccScale scale;
  scale.warehouses = 16;
  scale.districts_per_warehouse = 10;
  scale.customers_per_district = 32;
  scale.items = 400;
  scale.initial_orders_per_district = 16;
  return scale;
}

/// Rounds a run makes even when S seconds pass sooner (a traced run needs
/// one traced and one untraced round for tracing_overhead_pct).
constexpr uint32_t kMinRounds = 3;
/// On the TPC-C workloads the SQL metrics come from a quiesced phase after
/// each round's OLTP run: this many passes of the query loop.
constexpr int kQuietPasses = 1;
/// Primary-key point SELECTs per pass of the SQL loop (after the three
/// aggregates), alternating customer and stock. The quiesced phase runs
/// more: they are cheap, and p99 needs thousands of samples.
constexpr int kPointsPerPass = 64;
constexpr int kQuietPointsPerPass = 1024;
constexpr uint32_t kSqlWorkerId = 1000;
constexpr uint32_t kCheckWorkerId = 1001;

/// CH-benCHmark aggregates over order_line, as in bench/hybrid_chbench.cc.
/// COUNT(*) comes first so every pass observes the row count.
const char* const kOlapQueries[] = {
    "SELECT COUNT(*) FROM order_line",
    "SELECT ol_number, COUNT(*), SUM(ol_quantity), AVG(ol_amount) "
    "FROM order_line WHERE ol_delivery_d > 0 GROUP BY ol_number",
    "SELECT SUM(ol_amount) FROM order_line "
    "WHERE ol_quantity >= 1 AND ol_quantity <= 5 AND ol_amount > 0.01",
};
constexpr int kNumOlapQueries = 3;

constexpr int kNumTxnTypes = 5;
const char* const kTxnNames[kNumTxnTypes] = {
    "new_order", "payment", "delivery", "order_status", "stock_level"};
const char* const kTxnSpanNames[kNumTxnTypes] = {
    "tpcc.new_order", "tpcc.payment", "tpcc.delivery", "tpcc.order_status",
    "tpcc.stock_level"};

// Layer names (also the "cat" of trace events).
constexpr const char* kLayerTpcc = "workload/tpcc";
constexpr const char* kLayerSql = "sql";
constexpr const char* kLayerSetup = "setup";

bool ParseWorkload(const std::string& name, Config* cfg) {
  cfg->name = name;
  if (name == "tpcc_write") {
    cfg->mix = tpcc::Mix::kWriteIntensive;
  } else if (name == "tpcc_read") {
    cfg->mix = tpcc::Mix::kReadIntensive;
  } else if (name == "ch_hybrid") {
    cfg->mix = tpcc::Mix::kWriteIntensive;
    cfg->sessions = 3;
    cfg->executor_threads = 3;
    cfg->hybrid = true;
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Statistics

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return Ratio(sum, static_cast<double>(values.size()));
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------------------
// Timing wrapper around the TPC-C backend

enum class Outcome : uint8_t { kCommitted, kUserAbort, kConflict, kError };

/// Attempts one TPC-C transaction gets before it counts as failed.
constexpr uint8_t kMaxAttempts = 10;

/// One TpccBackend::Execute attempt.
struct Attempt {
  uint8_t type = 0;
  /// 0 for a transaction's first attempt, then 1, 2, ... for resubmissions.
  uint8_t index = 0;
  Outcome outcome = Outcome::kError;
  uint64_t host_start_ns = 0;
  uint64_t host_end_ns = 0;
  uint64_t virtual_start_ns = 0;
  /// Committed attempts: the transaction's virtual response time from its
  /// first attempt, measured as RunTpcc's tx.response_time sample.
  uint64_t virtual_ns = 0;
};

/// Times every Execute attempt on both clocks and classifies its outcome.
/// Execute is never called concurrently for one worker, so each worker's
/// attempt log has a single writer. Prepare is idempotent for the same
/// worker count: set-up prepares the sessions (timed as set-up), and
/// RunTpcc's own Prepare call then keeps them.
class TimedBackend final : public tpcc::TpccBackend {
 public:
  explicit TimedBackend(tpcc::TpccBackend* inner) : inner_(inner) {}

  Status Prepare(uint32_t num_workers) override {
    if (attempts_.size() == num_workers) return Status::OK();
    TELL_RETURN_NOT_OK(inner_->Prepare(num_workers));
    attempts_.assign(num_workers, {});
    return Status::OK();
  }

  /// Runs one TPC-C transaction. A conflict abort is resubmitted with the
  /// same input, as a terminal would, up to kMaxAttempts attempts in all;
  /// the transaction fails only if none of them commits. The backoff sleeps
  /// the executor thread: every session has a thread of its own here.
  Result<tpcc::TxnOutcome> Execute(uint32_t worker_id,
                                   const tpcc::TxnInput& input) override {
    tell::sim::VirtualClock* clock = inner_->clock(worker_id);
    const uint64_t virtual_start_ns = clock->now_ns();
    for (uint8_t index = 0;; ++index) {
      Attempt attempt;
      attempt.type = static_cast<uint8_t>(input.type);
      attempt.index = index;
      attempt.virtual_start_ns = clock->now_ns();
      attempt.host_start_ns = HostNowNs();
      Result<tpcc::TxnOutcome> outcome = inner_->Execute(worker_id, input);
      attempt.host_end_ns = HostNowNs();
      if (!outcome.ok()) {
        attempt.outcome = Outcome::kError;
      } else if (outcome->committed) {
        attempt.outcome = Outcome::kCommitted;
        attempt.virtual_ns = clock->now_ns() - virtual_start_ns;
      } else {
        attempt.outcome =
            outcome->user_abort ? Outcome::kUserAbort : Outcome::kConflict;
      }
      attempts_[worker_id].push_back(attempt);
      if (attempt.outcome != Outcome::kConflict ||
          index + 1 == kMaxAttempts) {
        return outcome;
      }
      // The conflicting writer is usually still inside its commit (a
      // Delivery's takes milliseconds of host time), and an immediate retry
      // aborts again on the same version; back off 0.1 ms, doubling.
      std::this_thread::sleep_for(
          std::chrono::microseconds(100 << std::min<int>(index, 7)));
    }
  }

  tell::sim::VirtualClock* clock(uint32_t worker_id) override {
    return inner_->clock(worker_id);
  }
  tell::sim::WorkerMetrics* metrics(uint32_t worker_id) override {
    return inner_->metrics(worker_id);
  }

  const std::vector<std::vector<Attempt>>& attempts() const {
    return attempts_;
  }

 private:
  tpcc::TpccBackend* const inner_;
  std::vector<std::vector<Attempt>> attempts_;
};

// ---------------------------------------------------------------------------
// SQL session

/// What the SQL session did; summed over rounds.
struct SqlLog {
  std::vector<double> olap_ms;
  std::vector<double> point_us;
  std::vector<double> parse_us;  // traced rounds: re-run of sql::Parse
  std::vector<double> plan_us;   // traced rounds: re-run of PlanStatement
  std::vector<int64_t> order_line_counts;  // this round's COUNT(*) results
  uint64_t statements = 0;
  uint64_t errors = 0;
  std::vector<std::string> error_messages;
  uint64_t point_statements = 0;
  uint64_t point_one_row = 0;
  uint64_t olap_bytes = 0;
  uint64_t olap_rows_scanned = 0;
  uint64_t olap_rows_returned = 0;
  uint64_t olap_chunk_releases = 0;
  double active_seconds = 0;  // host time the query loop ran
};

/// Runs the CH aggregates and seeded primary-key point SELECTs on one
/// session, from one thread at a time.
class SqlClient {
 public:
  SqlClient(db::TellDb* db, tell::tx::Session* session,
            const tpcc::TpccScale& scale, uint64_t seed, Tracer* tracer,
            size_t track, SqlLog* log)
      : db_(db), session_(session), scale_(scale), rng_(seed),
        tracer_(tracer), track_(track), log_(log) {}

  /// Query-loop passes (three aggregates, then `points` point SELECTs)
  /// until `stop` is requested or `passes` passes are done (0: no limit).
  void Loop(std::stop_token stop, int passes, int points) {
    const uint64_t start = HostNowNs();
    for (int pass = 0; passes == 0 || pass < passes; ++pass) {
      for (int q = 0; q < kNumOlapQueries; ++q) {
        if (stop.stop_requested()) {
          return Finish(start);
        }
        RunOlap(q, /*measured=*/true);
      }
      for (int i = 0; i < points; ++i) {
        if (stop.stop_requested()) {
          return Finish(start);
        }
        RunPoint(i % 2 == 0);
      }
    }
    Finish(start);
  }

  /// One aggregate; for COUNT(*) the count joins this round's sequence.
  /// Returns the count, or -1 for other queries and errors. An unmeasured
  /// query (the check after the run) stays out of the OLAP metrics.
  int64_t RunOlap(int q, bool measured) {
    const tell::sim::WorkerMetrics& m = *session_->metrics();
    const uint64_t bytes0 = m.bytes_received;
    const uint64_t scanned0 = m.scan_rows_scanned;
    const uint64_t returned0 = m.scan_rows_returned;
    const uint64_t releases0 = m.scan_chunk_lock_releases;
    const int64_t span =
        tracer_ != nullptr && measured
            ? tracer_->Open(track_, "sql.olap_query", kLayerSql)
            : -1;
    const uint64_t t0 = HostNowNs();
    auto result = db_->AutoCommitSql(session_, kOlapQueries[q]);
    const uint64_t t1 = HostNowNs();
    if (span >= 0) tracer_->Close(track_, span);
    ++log_->statements;
    if (!result.ok()) {
      RecordError(result.status());
      return -1;
    }
    if (measured) {
      log_->olap_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      log_->olap_bytes += m.bytes_received - bytes0;
      log_->olap_rows_scanned += m.scan_rows_scanned - scanned0;
      log_->olap_rows_returned += m.scan_rows_returned - returned0;
      log_->olap_chunk_releases += m.scan_chunk_lock_releases - releases0;
    }
    if (q != 0) return -1;
    int64_t count = -1;
    if (result->rows.size() == 1 && result->rows[0].size() == 1) {
      count = result->rows[0].GetInt(0);
    }
    log_->order_line_counts.push_back(count);
    return count;
  }

  void RunPoint(bool customer) {
    char sql[200];
    const int64_t w = rng_.UniformInt(1, scale_.warehouses);
    if (customer) {
      std::snprintf(sql, sizeof(sql),
                    "SELECT c_id, c_balance, c_last FROM customer WHERE "
                    "c_w_id = %lld AND c_d_id = %lld AND c_id = %lld",
                    static_cast<long long>(w),
                    static_cast<long long>(
                        rng_.UniformInt(1, scale_.districts_per_warehouse)),
                    static_cast<long long>(
                        rng_.UniformInt(1, scale_.customers_per_district)));
    } else {
      std::snprintf(sql, sizeof(sql),
                    "SELECT s_i_id, s_quantity FROM stock WHERE s_w_id = %lld "
                    "AND s_i_id = %lld",
                    static_cast<long long>(w),
                    static_cast<long long>(rng_.UniformInt(1, scale_.items)));
    }
    int64_t root = -1;
    int64_t exec_span = -1;
    if (tracer_ != nullptr) {
      root = tracer_->Open(track_, "sql.point_select", kLayerSql);
      exec_span = tracer_->Open(track_, "sql.autocommit", kLayerSql, root);
    }
    const uint64_t t0 = HostNowNs();
    auto result = db_->AutoCommitSql(session_, sql);
    const uint64_t t1 = HostNowNs();
    ++log_->statements;
    ++log_->point_statements;
    if (tracer_ != nullptr) {
      tracer_->Close(track_, exec_span);
      ReparseTraced(sql, root);
      tracer_->Close(track_, root);
    }
    if (!result.ok()) {
      RecordError(result.status());
      return;
    }
    log_->point_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (result->rows.size() == 1) ++log_->point_one_row;
  }

 private:
  /// Re-runs the front end of the statement just executed so the traced
  /// run can split parse from plan time (AutoCommitSql does both inside).
  void ReparseTraced(const char* sql, int64_t root) {
    const int64_t parse_span =
        tracer_->Open(track_, "sql.parse", kLayerSql, root);
    const uint64_t t0 = HostNowNs();
    auto stmt = tell::sql::Parse(sql);
    const uint64_t t1 = HostNowNs();
    tracer_->Close(track_, parse_span);
    if (!stmt.ok()) {
      RecordError(stmt.status());
      return;
    }
    log_->parse_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    const int64_t plan_span =
        tracer_->Open(track_, "sql.plan", kLayerSql, root);
    const uint64_t t2 = HostNowNs();
    auto plan = tell::sql::PlanStatement(std::move(*stmt), db_->catalog());
    const uint64_t t3 = HostNowNs();
    tracer_->Close(track_, plan_span);
    if (!plan.ok()) {
      RecordError(plan.status());
      return;
    }
    log_->plan_us.push_back(static_cast<double>(t3 - t2) / 1e3);
  }

  void RecordError(const Status& status) {
    ++log_->errors;
    if (log_->error_messages.size() < 8) {
      log_->error_messages.push_back(status.ToString());
    }
  }

  void Finish(uint64_t start) {
    log_->active_seconds += Seconds(HostNowNs() - start);
  }

  db::TellDb* const db_;
  tell::tx::Session* const session_;
  const tpcc::TpccScale scale_;
  tell::Random rng_;
  Tracer* const tracer_;
  const size_t track_;
  SqlLog* const log_;
};

// ---------------------------------------------------------------------------
// Rounds

/// Node-side counters read from TellDb::ExportStats.
const char* const kNodeGauges[] = {
    "store.node.gets",          "store.node.conditional_puts",
    "store.node.llsc_failures", "store.node.stripe_conflicts",
    "store.node.lock_wait_ns",  "index.cache.entries",
};

std::map<std::string, uint64_t> NodeGauges(const db::TellDb& tdb) {
  tell::obs::MetricsRegistry registry;
  tdb.ExportStats(&registry);
  tell::obs::MetricsSnapshot snap = registry.Snapshot();
  std::map<std::string, uint64_t> out;
  for (const char* name : kNodeGauges) {
    out[name] = snap.Scalar(name).value_or(0);
  }
  return out;
}

/// Everything a run accumulates over its rounds.
struct RunTotals {
  uint32_t rounds = 0;
  uint32_t traced_rounds = 0;
  std::vector<double> setup_s, create_s, load_s, prepare_s;
  std::vector<double> host_tps, host_tps_traced, host_tps_untraced;
  std::vector<double> cpu_us_per_txn, tpmc, olap_qps;
  std::vector<double> host_attempt_us;   // every attempt
  std::vector<double> virtual_commit_ms;  // committed attempts
  std::array<std::vector<double>, kNumTxnTypes> type_host_us;
  std::vector<double> delivery_late_early;
  uint64_t transactions = 0, failed_transactions = 0;
  uint64_t attempts = 0, committed = 0, user_aborts = 0, conflicts = 0;
  uint64_t run_errors = 0;
  std::vector<std::string> error_messages;
  tell::sim::WorkerMetrics tpcc_metrics;  // TPC-C sessions, merged
  std::map<std::string, uint64_t> node_delta;
  std::vector<double> index_cache_entries;
  uint64_t exec_busy_ns = 0, exec_capacity_ns = 0, exec_yields = 0,
           exec_steals = 0, exec_parks = 0;
  SqlLog sql;
  std::map<std::string, std::pair<uint32_t, uint32_t>> checks;  // pass, runs
  std::vector<std::string> check_failures;
  std::vector<std::pair<std::string, uint64_t>> row_counts;  // last round
};

void AddCheck(RunTotals* totals, const Check& check) {
  auto& [pass, runs] = totals->checks[check.name];
  ++runs;
  if (check.ok) {
    ++pass;
  } else if (totals->check_failures.size() < 8) {
    totals->check_failures.push_back(check.name + ": " + check.detail);
  }
}

void RecordError(RunTotals* totals, const std::string& what,
                 const Status& status) {
  ++totals->run_errors;
  if (totals->error_messages.size() < 8) {
    totals->error_messages.push_back(what + ": " + status.ToString());
  }
}

/// Commits one round's attempt logs contain.
struct RoundCommits {
  uint64_t committed = 0;
  uint64_t new_orders = 0;
};

/// Folds one round's attempt logs into the totals, and into the trace as
/// one root span per attempt on the session's track.
RoundCommits AbsorbAttempts(const TimedBackend& timed,
                            uint64_t virtual_horizon_ns, Tracer* tracer,
                            RunTotals* totals) {
  RoundCommits commits;
  std::vector<double> delivery_early, delivery_late;
  const auto& logs = timed.attempts();
  for (size_t w = 0; w < logs.size(); ++w) {
    for (const Attempt& a : logs[w]) {
      const double host_us =
          static_cast<double>(a.host_end_ns - a.host_start_ns) / 1e3;
      ++totals->attempts;
      if (a.index == 0) ++totals->transactions;
      totals->host_attempt_us.push_back(host_us);
      totals->type_host_us[a.type].push_back(host_us);
      switch (a.outcome) {
        case Outcome::kCommitted:
          ++commits.committed;
          if (a.type == static_cast<uint8_t>(tpcc::TxnType::kNewOrder)) {
            ++commits.new_orders;
          }
          totals->virtual_commit_ms.push_back(
              static_cast<double>(a.virtual_ns) / 1e6);
          break;
        case Outcome::kUserAbort: ++totals->user_aborts; break;
        case Outcome::kConflict:
          ++totals->conflicts;
          if (a.index + 1 == kMaxAttempts) ++totals->failed_transactions;
          break;
        case Outcome::kError: break;  // RunTpcc returns the error itself
      }
      // Delivery's host time early and late in the round, by the virtual
      // time the attempt started (tenths of the horizon).
      if (a.type == static_cast<uint8_t>(tpcc::TxnType::kDelivery)) {
        if (a.virtual_start_ns < virtual_horizon_ns / 10) {
          delivery_early.push_back(host_us);
        } else if (a.virtual_start_ns >= virtual_horizon_ns / 10 * 9) {
          delivery_late.push_back(host_us);
        }
      }
      if (tracer != nullptr) {
        Span span;
        span.name = kTxnSpanNames[a.type];
        span.layer = kLayerTpcc;
        span.start_ns = a.host_start_ns;
        span.end_ns = a.host_end_ns;
        tracer->Add(w, span);
      }
    }
  }
  totals->committed += commits.committed;
  if (!delivery_early.empty() && !delivery_late.empty()) {
    totals->delivery_late_early.push_back(
        Ratio(Mean(delivery_late), Mean(delivery_early)));
  }
  return commits;
}

/// Runs one round: set-up, the measured run, then the checks. Errors are
/// recorded in `totals`.
void RunRound(const Config& cfg, uint32_t round, Tracer* tracer,
              RunTotals* totals) {
  const uint64_t round_seed = cfg.seed * 1000003ULL + round;
  const tpcc::TpccScale scale = BenchScale();
  const size_t main_track = cfg.sessions + 1;
  const size_t sql_track = cfg.sessions;
  auto open = [&](const char* name, int64_t parent) -> int64_t {
    return tracer != nullptr
               ? tracer->Open(main_track, name, kLayerSetup, parent)
               : -1;
  };
  auto close = [&](int64_t span) {
    if (span >= 0) tracer->Close(main_track, span);
  };

  // --- Set-up (setup_s): create, load, prepare the sessions.
  const uint64_t t0 = HostNowNs();
  const int64_t setup_span = open("setup", -1);
  int64_t span = open("setup.create", setup_span);
  db::TellDbOptions options;
  options.operator_pushdown = cfg.hybrid;
  auto tdb = std::make_unique<db::TellDb>(options);
  Status st = tpcc::CreateTpccTables(tdb.get());
  close(span);
  const uint64_t t1 = HostNowNs();
  span = open("setup.load", setup_span);
  if (st.ok()) st = tpcc::LoadTpcc(tdb.get(), scale, round_seed);
  close(span);
  const uint64_t t2 = HostNowNs();
  span = open("setup.prepare", setup_span);
  tpcc::TellBackend inner(tdb.get());
  TimedBackend timed(&inner);
  if (st.ok()) st = timed.Prepare(cfg.sessions);
  // TPC-C sessions are all on PN 0 (prepared while it is the only PN); the
  // concurrent SQL session gets a PN of its own.
  const uint32_t sql_pn = cfg.hybrid ? tdb->AddProcessingNode() : 0;
  auto sql_session = tdb->OpenSession(sql_pn, kSqlWorkerId);
  auto check_session = tdb->OpenSession(0, kCheckWorkerId);
  close(span);
  close(setup_span);
  const uint64_t t3 = HostNowNs();
  if (!st.ok()) return RecordError(totals, "set-up", st);
  totals->setup_s.push_back(Seconds(t3 - t0));
  totals->create_s.push_back(Seconds(t1 - t0));
  totals->load_s.push_back(Seconds(t2 - t1));
  totals->prepare_s.push_back(Seconds(t3 - t2));

  auto tables = tpcc::OpenTpccTables(tdb.get(), 0);
  if (!tables.ok()) return RecordError(totals, "open tables", tables.status());
  auto orders_before = CountRows(check_session.get(), tables->orders);
  if (!orders_before.ok()) {
    return RecordError(totals, "count orders", orders_before.status());
  }
  const std::map<std::string, uint64_t> gauges_before = NodeGauges(*tdb);

  // --- Measured run.
  SqlLog& sql_log = totals->sql;
  sql_log.order_line_counts.clear();
  const uint64_t points0 = sql_log.point_statements;
  const uint64_t one_row0 = sql_log.point_one_row;
  const size_t olap_queries0 = sql_log.olap_ms.size();
  const double loop_seconds0 = sql_log.active_seconds;
  SqlClient sql(tdb.get(), sql_session.get(), scale, round_seed ^ 0x5Eed,
                tracer, sql_track, &sql_log);

  tpcc::DriverOptions run_options;
  run_options.scale = scale;
  run_options.mix = cfg.mix;
  run_options.num_workers = cfg.sessions;
  run_options.duration_virtual_ms = kVirtualMs;
  run_options.seed = round_seed;
  run_options.executor_threads = cfg.executor_threads;
  run_options.pin_cores = false;
  const double cpu0 = CpuSeconds();
  Result<tpcc::DriverResult> result = Status::OK();
  {
    std::jthread sql_thread;
    if (cfg.hybrid) {
      sql_thread = std::jthread(
          [&sql](std::stop_token stop) {
            sql.Loop(stop, /*passes=*/0, kPointsPerPass);
          });
    }
    result = tpcc::RunTpcc(&timed, run_options);
  }  // the SQL thread is stopped and joined here
  const double cpu1 = CpuSeconds();
  const std::map<std::string, uint64_t> gauges_after = NodeGauges(*tdb);
  const RoundCommits commits =
      AbsorbAttempts(timed, kVirtualMs * 1'000'000ULL, tracer, totals);
  if (!result.ok()) return RecordError(totals, "RunTpcc", result.status());

  ++totals->rounds;
  if (tracer != nullptr) ++totals->traced_rounds;
  totals->host_tps.push_back(result->wall_tps);
  (tracer != nullptr ? totals->host_tps_traced : totals->host_tps_untraced)
      .push_back(result->wall_tps);
  totals->cpu_us_per_txn.push_back(
      Ratio((cpu1 - cpu0) * 1e6, static_cast<double>(commits.committed)));
  totals->tpmc.push_back(result->tpmc);
  totals->tpcc_metrics.Merge(result->merged);
  for (const auto& [name, value] : gauges_after) {
    if (name == "index.cache.entries") {
      totals->index_cache_entries.push_back(static_cast<double>(value));
    } else {
      totals->node_delta[name] += value - gauges_before.at(name);
    }
  }
  const tell::exec::RuntimeStats& exec = result->exec_stats;
  using PerCore = tell::exec::RuntimeStats::PerCore;
  totals->exec_busy_ns += exec.Total(&PerCore::busy_ns);
  totals->exec_capacity_ns += exec.wall_ns * exec.threads;
  totals->exec_yields += exec.Total(&PerCore::yields);
  totals->exec_steals += exec.Total(&PerCore::steals);
  totals->exec_parks += exec.Total(&PerCore::parks);

  // --- SQL on the TPC-C workloads: a quiesced phase after the OLTP run.
  if (!cfg.hybrid) {
    sql.Loop(std::stop_token{}, kQuietPasses, kQuietPointsPerPass);
  }
  totals->olap_qps.push_back(
      Ratio(static_cast<double>(sql_log.olap_ms.size() - olap_queries0),
            sql_log.active_seconds - loop_seconds0));

  // --- Checks.
  // The quiesced phase's COUNT(*) already ran on the final state.
  const int64_t final_count =
      cfg.hybrid                          ? sql.RunOlap(0, /*measured=*/false)
      : sql_log.order_line_counts.empty() ? -1
                                          : sql_log.order_line_counts.back();
  auto after = ReadTpccState(check_session.get(), *tables);
  if (!after.ok()) return RecordError(totals, "read state", after.status());
  totals->row_counts = after->row_counts;
  AddCheck(totals, CheckDistrictOrderIds(*after));
  AddCheck(totals, CheckWarehouseYtd(*after));
  AddCheck(totals, CheckNewOrderGrowth(*orders_before,
                                       after->Rows("orders"),
                                       commits.new_orders));
  AddCheck(totals,
           CheckCommittedAgree(commits.committed, result->merged.committed));
  AddCheck(totals, CheckOrderLineMonotone(sql_log.order_line_counts));
  AddCheck(totals, CheckOrderLineFinal(final_count, after->Rows("order_line")));
  AddCheck(totals, CheckPointRows(sql_log.point_statements - points0,
                                  sql_log.point_one_row - one_row0));
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* layer;  // per-layer metrics only
};

/// The end-to-end metrics (--trace 0). The names and units must match
/// BENCHMARK.json, which the launcher checks.
std::vector<Metric> EndToEndMetrics(const RunTotals& t) {
  return {
      {"setup_s", Median(t.setup_s), "s", ""},
      {"host_tps", Median(t.host_tps), "1/s", ""},
      {"cpu_us_per_txn", Median(t.cpu_us_per_txn), "us", ""},
      {"host_txn_p50_us", Percentile(t.host_attempt_us, 50), "us", ""},
      {"host_txn_p99_us", Percentile(t.host_attempt_us, 99), "us", ""},
      {"peak_rss_mb", PeakRssMb(), "MB", ""},
      {"tpmc", Median(t.tpmc), "1/min", ""},
      {"virtual_p50_ms", Percentile(t.virtual_commit_ms, 50), "ms", ""},
      {"virtual_p99_ms", Percentile(t.virtual_commit_ms, 99), "ms", ""},
      {"olap_qps", Median(t.olap_qps), "1/s", ""},
      {"olap_p50_ms", Percentile(t.sql.olap_ms, 50), "ms", ""},
      {"olap_p90_ms", Percentile(t.sql.olap_ms, 90), "ms", ""},
      {"sql_point_p50_us", Percentile(t.sql.point_us, 50), "us", ""},
      {"sql_point_p99_us", Percentile(t.sql.point_us, 99), "us", ""},
  };
}

/// The per-layer metrics (--trace 1). "per_txn" divides by committed TPC-C
/// transactions; "per_query" by the SQL session's aggregate queries.
std::vector<Metric> PerLayerMetrics(const RunTotals& t) {
  const tell::sim::WorkerMetrics& m = t.tpcc_metrics;
  const double txns = static_cast<double>(t.committed);
  const double queries = static_cast<double>(t.sql.olap_ms.size());
  const double rounds = static_cast<double>(t.rounds);
  auto node = [&](const char* name) {
    auto it = t.node_delta.find(name);
    return it == t.node_delta.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto per_txn = [&](double v) { return Ratio(v, txns); };
  auto u = [](uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> out;
  for (int i = 0; i < kNumTxnTypes; ++i) {
    out.push_back({std::string("tpcc.") + kTxnNames[i] + ".host_us",
                   Mean(t.type_host_us[static_cast<size_t>(i)]), "us",
                   kLayerTpcc});
  }
  out.push_back({"tpcc.delivery.late_early_ratio",
                 Median(t.delivery_late_early), "ratio", kLayerTpcc});
  out.push_back({"sql.parse_us", Mean(t.sql.parse_us), "us", kLayerSql});
  out.push_back({"sql.plan_us", Mean(t.sql.plan_us), "us", kLayerSql});
  out.push_back({"sql.scan.rows_scanned_per_query",
                 Ratio(u(t.sql.olap_rows_scanned), queries), "rows",
                 kLayerSql});
  out.push_back({"sql.scan.return_ratio",
                 Ratio(u(t.sql.olap_rows_returned), u(t.sql.olap_rows_scanned)),
                 "ratio", kLayerSql});
  out.push_back({"olap.bytes_per_query", Ratio(u(t.sql.olap_bytes), queries),
                 "bytes", kLayerSql});
  out.push_back({"sql.scan.chunk_lock_releases_per_query",
                 Ratio(u(t.sql.olap_chunk_releases), queries), "count",
                 kLayerSql});
  out.push_back({"tx.conflict_abort_ratio",
                 Ratio(u(t.conflicts), u(t.attempts)), "ratio", "tx"});
  static const char* const kPhases[] = {"begin", "index_lookup", "read",
                                        "write", "validate",     "commit"};
  for (size_t p = 0; p < 6; ++p) {
    out.push_back({std::string("tx.phase.") + kPhases[p] + "_ns",
                   m.phase_ns[p].Mean(), "ns", "tx"});
  }
  out.push_back({"txlog.appends_per_txn", per_txn(u(m.log_appends)), "count",
                 "tx"});
  out.push_back({"gc.eager_versions_removed_per_txn",
                 per_txn(u(m.eager_gc_versions)), "count", "tx"});
  out.push_back({"buffer.hit_ratio", m.BufferHitRate(), "ratio", "buffer"});
  out.push_back({"commitmgr.rpc_messages_per_txn", per_txn(u(m.cm_messages)),
                 "count", "commitmgr"});
  out.push_back({"commitmgr.rpc_bytes_per_txn", per_txn(u(m.cm_bytes)),
                 "bytes", "commitmgr"});
  out.push_back({"index.lookups_per_txn", per_txn(u(m.index_lookups)), "count",
                 "index"});
  out.push_back({"index.cache.entries", Median(t.index_cache_entries),
                 "count", "index"});
  out.push_back({"store.requests_per_txn", per_txn(u(m.storage_requests)),
                 "count", "store"});
  out.push_back({"store.ops_per_request",
                 Ratio(u(m.storage_ops), u(m.storage_requests)), "count",
                 "store"});
  out.push_back({"net.bytes_per_txn",
                 per_txn(u(m.bytes_sent) + u(m.bytes_received)), "bytes",
                 "store"});
  out.push_back({"store.node.gets_per_txn", per_txn(node("store.node.gets")),
                 "count", "store"});
  out.push_back({"store.node.conditional_puts_per_txn",
                 per_txn(node("store.node.conditional_puts")), "count",
                 "store"});
  out.push_back({"store.llsc_failure_ratio",
                 Ratio(node("store.node.llsc_failures"),
                       node("store.node.conditional_puts")),
                 "ratio", "store"});
  out.push_back({"store.node.stripe_conflicts_per_txn",
                 per_txn(node("store.node.stripe_conflicts")), "count",
                 "store"});
  out.push_back({"store.node.lock_wait_ms",
                 Ratio(node("store.node.lock_wait_ns") / 1e6, rounds), "ms",
                 "store"});
  out.push_back({"store.retries", u(m.storage_retries), "count", "store"});
  out.push_back({"exec.busy_ratio",
                 Ratio(u(t.exec_busy_ns), u(t.exec_capacity_ns)), "ratio",
                 "exec"});
  out.push_back({"exec.yields_per_txn", per_txn(u(t.exec_yields)), "count",
                 "exec"});
  out.push_back({"exec.steals_per_txn", per_txn(u(t.exec_steals)), "count",
                 "exec"});
  out.push_back({"exec.parks", Ratio(u(t.exec_parks), rounds), "count",
                 "exec"});
  out.push_back({"setup.create_s", Median(t.create_s), "s", kLayerSetup});
  out.push_back({"setup.load_s", Median(t.load_s), "s", kLayerSetup});
  out.push_back({"setup.prepare_s", Median(t.prepare_s), "s", kLayerSetup});
  const double untraced = Median(t.host_tps_untraced);
  out.push_back({"tracing_overhead_pct",
                 Ratio(untraced - Median(t.host_tps_traced), untraced) * 100.0,
                 "%", "trace"});
  return out;
}

// ---------------------------------------------------------------------------
// Output

/// Minimal JSON object writer; keys and string values are plain ASCII.
class Json {
 public:
  Json& Num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  Json& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  Json& Str(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  Json& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  static std::string List(const std::vector<std::string>& items) {
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i) {
      out += (i == 0 ? "" : ", ") + Quote(items[i]);
    }
    return out + "]";
  }

 private:
  std::string body_;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  Json json;
  for (const Metric& m : metrics) {
    json.Raw(m.name, Json().Num("value", m.value).Str("unit", m.unit).str());
  }
  return json.str();
}

/// The conditions a result was measured under, so later runs compare like
/// with like.
std::string RecordJson(const Config& cfg, const RunTotals& t) {
  Json rows;
  for (const auto& [table, count] : t.row_counts) rows.Int(table, count);
  Json checks;
  for (const auto& [name, pass_runs] : t.checks) {
    checks.Raw(name, Json()
                         .Int("passed", pass_runs.first)
                         .Int("rounds", pass_runs.second)
                         .str());
  }
  Json samples;
  samples.Int("host_txn", t.host_attempt_us.size())
      .Int("virtual_txn", t.virtual_commit_ms.size())
      .Int("olap_query", t.sql.olap_ms.size())
      .Int("sql_point", t.sql.point_us.size())
      .Int("rounds", t.rounds)
      .Int("traced_rounds", t.traced_rounds);
  Json failures;
  failures.Int("tpcc_transactions", t.transactions)
      .Int("tpcc_failed_transactions", t.failed_transactions)
      .Int("tpcc_attempts", t.attempts)
      .Int("tpcc_committed", t.committed)
      .Int("tpcc_user_rollbacks", t.user_aborts)
      .Int("tpcc_conflict_aborts", t.conflicts)
      .Int("run_errors", t.run_errors)
      .Int("sql_statements", t.sql.statements)
      .Int("sql_errors", t.sql.errors);
  std::vector<std::string> errors = t.error_messages;
  errors.insert(errors.end(), t.sql.error_messages.begin(),
                t.sql.error_messages.end());
  return Json()
      .Str("workload", cfg.name)
      .Int("seed", cfg.seed)
      .Num("seconds", cfg.seconds)
      .Bool("trace", cfg.trace)
      .Int("host_cores", std::thread::hardware_concurrency())
      .Int("executor_threads", cfg.executor_threads)
      .Int("tpcc_sessions", cfg.sessions)
      .Int("sql_sessions", 1)
      .Bool("sql_concurrent", cfg.hybrid)
      .Bool("operator_pushdown", cfg.hybrid)
      .Bool("pinning", false)
      .Int("virtual_horizon_ms", kVirtualMs)
      .Int("warehouses", BenchScale().warehouses)
      .Str("build_type", TELLBENCH_BUILD_TYPE)
      .Raw("row_counts_last_round", rows.str())
      .Raw("samples", samples.str())
      .Raw("operations", failures.str())
      .Raw("checks", checks.str())
      .Raw("check_failures", Json::List(t.check_failures))
      .Raw("errors", Json::List(errors))
      .str();
}

const char* const kLayerOrder[] = {"setup",     "workload/tpcc", "sql",
                                   "tx",        "commitmgr",     "index",
                                   "store",     "buffer",        "exec",
                                   "trace"};

/// The per-layer table: self and total host time of the benchmark's spans
/// into each layer, and that layer's counters.
std::string LayerTable(const std::vector<Metric>& metrics, const Tracer& tracer,
                       std::string* text) {
  const std::map<std::string, LayerTime> times = tracer.LayerTimes();
  Json table;
  char line[256];
  for (const char* layer : kLayerOrder) {
    LayerTime time;
    if (auto it = times.find(layer); it != times.end()) time = it->second;
    std::snprintf(line, sizeof(line), "%-14s spans=%-8llu self_ms=%-12.3f "
                  "total_ms=%.3f\n", layer,
                  static_cast<unsigned long long>(time.spans),
                  static_cast<double>(time.self_ns) / 1e6,
                  static_cast<double>(time.total_ns) / 1e6);
    *text += line;
    std::vector<Metric> own;
    for (const Metric& m : metrics) {
      if (std::strcmp(m.layer, layer) != 0) continue;
      own.push_back(m);
      std::snprintf(line, sizeof(line), "    %-40s %16.6g %s\n",
                    m.name.c_str(), m.value, m.unit);
      *text += line;
    }
    Json row;
    row.Int("spans", time.spans)
        .Num("self_ms", static_cast<double>(time.self_ns) / 1e6)
        .Num("total_ms", static_cast<double>(time.total_ns) / 1e6)
        .Raw("metrics", MetricsJson(own));
    table.Raw(layer, row.str());
  }
  return table.str();
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs(content.c_str(), f) >= 0;
  return std::fclose(f) == 0 && ok;
}

int Run(const Config& cfg) {
  std::vector<std::string> labels;
  for (uint32_t s = 0; s < cfg.sessions; ++s) {
    labels.push_back("tpcc session " + std::to_string(s));
  }
  labels.push_back("sql session");
  labels.push_back("main");
  Tracer tracer(std::move(labels));
  RunTotals totals;

  const uint64_t start = HostNowNs();
  for (uint32_t round = 0;
       round < kMinRounds || Seconds(HostNowNs() - start) < cfg.seconds;
       ++round) {
    // A traced run traces every other round; the untraced rounds give the
    // baseline for tracing_overhead_pct.
    const bool traced = cfg.trace && round % 2 == 0;
    RunRound(cfg, round, traced ? &tracer : nullptr, &totals);
    if (totals.run_errors > 0 || !totals.check_failures.empty()) break;
  }

  bool correct = totals.run_errors == 0 && totals.rounds > 0;
  for (const auto& [name, pass_runs] : totals.checks) {
    correct = correct && pass_runs.first == pass_runs.second;
  }
  // Operations: TPC-C transactions (a user rollback is a success, a
  // conflict abort is resubmitted) and SQL statements.
  const uint64_t attempted = totals.transactions + totals.sql.statements;
  const uint64_t failed = totals.failed_transactions + totals.run_errors +
                          totals.sql.errors;

  const std::vector<Metric> end_to_end = EndToEndMetrics(totals);
  const std::vector<Metric> per_layer = PerLayerMetrics(totals);
  const std::vector<Metric>& reported = cfg.trace ? per_layer : end_to_end;

  std::printf("%s seed=%llu rounds=%u attempted=%llu failed=%llu correct=%s\n",
              cfg.name.c_str(), static_cast<unsigned long long>(cfg.seed),
              totals.rounds, static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              correct ? "true" : "false");
  for (const std::string& failure : totals.check_failures) {
    std::printf("CHECK FAILED %s\n", failure.c_str());
  }
  for (const Metric& m : end_to_end) {
    std::printf("  %-18s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  const std::string record = RecordJson(cfg, totals);
  std::printf("{\"record\": %s}\n", record.c_str());

  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  const std::string stem = cfg.out_dir + "/" + cfg.name + "_seed" +
                           std::to_string(cfg.seed) + "_trace" +
                           (cfg.trace ? "1" : "0");
  Json file;
  file.Raw("record", record)
      .Raw("end_to_end", MetricsJson(end_to_end))
      .Raw("per_layer", MetricsJson(per_layer));
  if (cfg.trace) {
    std::string text;
    file.Raw("layers", LayerTable(per_layer, tracer, &text));
    std::printf("per-layer table (host self time of the benchmark's spans; "
                "counters):\n%s", text.c_str());
    const std::string trace_path = stem + ".trace.json";
    if (tracer.WriteChromeTrace(trace_path)) {
      std::printf("trace: %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      correct = false;
    }
  }
  if (!WriteFile(stem + ".json", file.str() + "\n")) {
    std::fprintf(stderr, "cannot write %s.json\n", stem.c_str());
    correct = false;
  }

  std::printf("%s\n", Json()
                          .Bool("correct", correct)
                          .Int("attempted", attempted)
                          .Int("failed", failed)
                          .Raw("metrics", MetricsJson(reported))
                          .str()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tellbench

int main(int argc, char** argv) {
  using tellbench::Config;
  Config cfg;
  bool have_workload = false;
  auto usage = [&](const char* why) {
    std::fprintf(stderr,
                 "%s\nusage: %s --workload tpcc_write|tpcc_read|ch_hybrid "
                 "--seed N --seconds S --trace 0|1 [--out DIR]\n",
                 why, argv[0]);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      if (!tellbench::ParseWorkload(value, &cfg)) {
        return usage("unknown workload");
      }
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(cfg.seconds > 0) || cfg.seconds > 120) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      cfg.trace = value == "1";
    } else if (arg == "--out") {
      cfg.out_dir = value;
    } else {
      return usage("unknown argument");
    }
  }
  if (!have_workload) return usage("--workload is required");
  return tellbench::Run(cfg);
}
