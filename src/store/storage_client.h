#ifndef TELL_STORE_STORAGE_CLIENT_H_
#define TELL_STORE_STORAGE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/future.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "sim/fault_injector.h"
#include "sim/metrics.h"
#include "sim/network_model.h"
#include "sim/virtual_clock.h"
#include "store/cluster.h"
#include "store/management_node.h"
#include "store/retry_policy.h"

namespace tell::store {

/// One logical read in a batch.
struct GetOp {
  TableId table;
  std::string key;
};

/// One logical write in a batch. `conditional` selects LL/SC semantics
/// (expected_stamp must match; kStampAbsent means insert-if-absent);
/// `erase` deletes instead of writing.
struct WriteOp {
  TableId table;
  std::string key;
  std::string value;
  uint64_t expected_stamp = kStampAbsent;
  bool conditional = true;
  bool erase = false;
};

/// Client-side knobs; the defaults reproduce the paper's configuration.
struct ClientOptions {
  sim::NetworkModel network = sim::NetworkModel::InfiniBand();
  sim::CpuModel cpu;
  /// Paper §5.1: Tell aggressively batches operations — several logical ops
  /// to the same storage node travel in one request, and requests to
  /// different nodes are issued in parallel. Disabled for the batching
  /// ablation bench (each op then pays a full sequential round trip).
  bool batching = true;
  /// Request pipelining (§5.1's "aggressive batching" taken to its
  /// conclusion): Async* calls enqueue into a per-worker combiner instead of
  /// blocking; Flush() coalesces everything outstanding into one message per
  /// storage node and charges a single shared round trip per node (the
  /// NetworkModel::CoalescedRequestCost overlap accounting) instead of N
  /// serial RTTs. Off by default: the synchronous paths then stay
  /// bit-identical, and Async* calls degrade to immediate execution.
  bool pipelining = false;
  /// Extra round trips charged per write for synchronous replication
  /// (master -> backup chain). Set from the cluster's replication factor.
  uint32_t replication_extra_hops = 0;
  /// Unified retry/backoff policy for Unavailable failures (fail-over,
  /// injected faults). Shared by every request path of the client.
  RetryPolicy retry;
  /// Seed of the client's private RNG (backoff jitter). Give each worker a
  /// distinct seed for reproducible-yet-decorrelated backoff.
  uint64_t retry_seed = 0xC0FFEE;
  /// Optional deterministic fault injection: consulted once per storage
  /// request. Not owned; shared by all clients of a cluster. nullptr = no
  /// faults.
  sim::FaultInjector* fault_injector = nullptr;
  /// Optional per-PN shared record cache (store/record_cache.h), holding
  /// versioned cells and B-tree leaves under lease epochs. Not owned;
  /// shared by every worker client of the processing node. nullptr = no
  /// caching. A hit skips the network round trip entirely (only the client
  /// per-op CPU is charged) and is guaranteed byte-identical to a fresh
  /// fetch by the lease-epoch protocol.
  RecordCache* record_cache = nullptr;
  /// Model reads as one-sided RDMA READs when the NetworkModel supports
  /// them (NetworkModel::HasOneSidedReads): the fetch pays
  /// OneSidedReadCost — no software overhead, no storage-node request
  /// dispatch — and is validated client-side against the partition's lease
  /// epoch (seqlock style). Validation failure falls back to the ordinary
  /// two-sided path. Ignored on kernel-TCP models.
  bool one_sided_reads = false;
  /// Cells per chunk of a vectorized fragment scan
  /// (StorageNode::FragmentScan). Between chunks the node drops every stripe
  /// lock, so smaller chunks mean less OLTP blocking per analytical pass at
  /// the price of more lock cycling.
  uint32_t scan_chunk_cells = 1024;
};

/// Result of one fragment fan-out (ExecuteFragmentScan): the per-partition
/// sinks (holding typed partial-aggregate states for the caller to merge)
/// plus the traffic/row accounting behind the sql.scan.* counters.
struct FragmentScanOutcome {
  std::vector<std::unique_ptr<FragmentSink>> sinks;  // one per partition
  uint64_t partitions = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_returned = 0;
  /// Partial-state response bytes actually charged (incl. framing).
  uint64_t response_bytes = 0;
  /// What a row-shipping scan would have charged for the same matches.
  uint64_t baseline_bytes = 0;
  uint64_t chunk_lock_releases = 0;
};

/// The storage interface of a processing node worker (paper Fig. 3,
/// "Storage Interface / Get/Put Byte[]").
///
/// Semantically a thin veneer over Cluster; its real job is *accounting*:
/// every interaction charges modelled network + CPU time to the worker's
/// VirtualClock and updates its WorkerMetrics, which is how all benchmark
/// figures are produced. Each worker thread owns its own StorageClient, so
/// nothing here needs synchronization.
///
/// Failure handling: every request path funnels through one retry loop
/// driven by ClientOptions::retry. An Unavailable response triggers
/// fail-over through the management node, an exponential backoff in virtual
/// time (jitter from the client's seeded RNG), and — for conditional writes
/// and erases, whose lost responses are ambiguous — a re-read that decides
/// whether the write applied before the op is re-issued.
class StorageClient : public PipelineFlusher {
 public:
  StorageClient(Cluster* cluster, ManagementNode* management,
                const ClientOptions& options, sim::VirtualClock* clock,
                sim::WorkerMetrics* metrics)
      : cluster_(cluster),
        management_(management),
        options_(options),
        clock_(clock),
        metrics_(metrics),
        rng_(options.retry_seed) {}

  StorageClient(const StorageClient&) = delete;
  StorageClient& operator=(const StorageClient&) = delete;

  const ClientOptions& options() const { return options_; }
  sim::VirtualClock* clock() { return clock_; }
  sim::WorkerMetrics* metrics() { return metrics_; }
  Cluster* cluster() { return cluster_; }

  /// Single-record read (one round trip; record cache and one-sided path
  /// applied when configured).
  Result<VersionedCell> Get(TableId table, std::string_view key);

  /// Explicit one-sided read: fetches the versioned cell raw via an RDMA
  /// READ and validates it client-side against the partition's lease epoch,
  /// regardless of ClientOptions::one_sided_reads. Falls back to the
  /// two-sided path when the network model has no one-sided support or the
  /// validation fails. Same future semantics as AsyncGet.
  Future<VersionedCell> AsyncOneSidedGet(TableId table, std::string_view key);

  /// --- Asynchronous pipeline (ClientOptions::pipelining) -------------------
  ///
  /// Async* calls enqueue a logical request and return an unresolved future;
  /// Flush() coalesces all outstanding requests into one message per storage
  /// node (issued in parallel across nodes) and resolves the futures.
  /// Joining any unresolved future flushes implicitly. Each logical request
  /// still resolves through the full RetryPolicy — fail-over, jittered
  /// backoff, ambiguous-write resolution — after the coalesced first attempt.
  /// With pipelining disabled the calls execute immediately (identical cost
  /// accounting and fault-injection stream to the synchronous paths) and
  /// return ready futures.
  Future<VersionedCell> AsyncGet(TableId table, std::string_view key);
  Future<uint64_t> AsyncPut(TableId table, std::string_view key,
                            std::string_view value);
  Future<uint64_t> AsyncConditionalPut(TableId table, std::string_view key,
                                       uint64_t expected_stamp,
                                       std::string_view value);
  /// Erase futures resolve to 0 on success (BatchWrite's convention).
  Future<uint64_t> AsyncErase(TableId table, std::string_view key);
  Future<uint64_t> AsyncConditionalErase(TableId table, std::string_view key,
                                         uint64_t expected_stamp);

  /// Issues every outstanding async request: one coalesced message per
  /// storage node, fault injection consulted once per *message* (the same
  /// unit the accounting charges), virtual time advanced by the slowest
  /// node's message. No-op when nothing is pending.
  void Flush() override;

  /// Outstanding async requests not yet flushed.
  size_t PendingOps() const { return pending_.size(); }

  /// Reads many records. With batching on, ops going to the same storage
  /// node share one request and requests to distinct nodes fly in parallel,
  /// so the charged time is the *maximum* over nodes, not the sum.
  std::vector<Result<VersionedCell>> BatchGet(const std::vector<GetOp>& ops);

  /// Unconditional single write.
  Result<uint64_t> Put(TableId table, std::string_view key,
                       std::string_view value);

  /// Store-conditional single write (the LL/SC commit primitive).
  Result<uint64_t> ConditionalPut(TableId table, std::string_view key,
                                  uint64_t expected_stamp,
                                  std::string_view value);

  Status Erase(TableId table, std::string_view key);
  Status ConditionalErase(TableId table, std::string_view key,
                          uint64_t expected_stamp);

  /// Applies many writes; same batching rules as BatchGet. Results are
  /// positionally aligned with `ops`: the new stamp for puts, 0 for erases,
  /// or the failure status. Ops are *independent* — a failed conditional put
  /// does not stop the others (the transaction layer decides what to roll
  /// back).
  std::vector<Result<uint64_t>> BatchWrite(const std::vector<WriteOp>& ops);

  /// Ordered scan; partition scans are issued in parallel.
  Result<std::vector<KeyCell>> Scan(TableId table, std::string_view start_key,
                                    std::string_view end_key, size_t limit,
                                    bool reverse = false);

  /// Push-down scan (§5.2): the transform executes on the storage nodes and
  /// only matching rows' visible payloads (not the stored multi-version
  /// cells) cross the network, so the charged traffic is the live result
  /// set, not the table. `filter_descriptor_bytes` models the size of the
  /// serialized predicate shipped with the request; `scanned` (optional)
  /// reports cells examined server-side.
  Result<std::vector<KeyCell>> PushdownScan(
      TableId table, std::string_view start_key, std::string_view end_key,
      size_t limit,
      const std::function<bool(std::string_view, std::string_view,
                               std::string*)>& transform,
      uint64_t filter_descriptor_bytes = 64, uint64_t* scanned = nullptr);

  /// Vectorized fragment fan-out (DESIGN.md "Vectorized scans & aggregate
  /// pushdown"): runs one sink per partition of `table` through the chunked
  /// FragmentScan path and charges the fan-out as parallel requests — the
  /// virtual-time cost is the slowest partition's fragment, not the sum, and
  /// each response is the serialized partial state, O(groups) bytes.
  /// `descriptor_bytes` is the serialized ScanFragment size shipped with
  /// every request. The factory builds a fresh sink per partition (and per
  /// retry attempt, so replays never double-fold).
  Result<FragmentScanOutcome> ExecuteFragmentScan(
      TableId table, uint64_t descriptor_bytes,
      const FragmentSinkFactory& make_sink);

  /// Atomic fetch-add on a counter cell (one round trip). NOT idempotent:
  /// a retried ambiguous increment may apply twice. All in-tree uses hand
  /// out id ranges, where a double-applied increment merely skips ids.
  Result<int64_t> AtomicIncrement(TableId table, std::string_view key,
                                  int64_t delta);

  /// Charges pure CPU time to the worker (used by the transaction and query
  /// layers for their own modelled work).
  void ChargeCpu(uint64_t ns) { clock_->Advance(ns); }

  /// Charges one non-storage RPC (e.g. the commit manager's start() call) to
  /// the worker: same network model, counted as a request.
  void ChargeRpc(uint64_t request_bytes, uint64_t response_bytes) {
    ChargeRequest(request_bytes, response_bytes);
  }

 private:
  /// Charges one network request and updates metrics.
  void ChargeRequest(uint64_t request_bytes, uint64_t response_bytes);
  /// Charges n parallel requests (max of individual costs — here they are
  /// uniform per-group costs, so cost of the largest group).
  void ChargeParallelRequests(const std::vector<std::pair<uint64_t, uint64_t>>&
                                  per_request_bytes);
  void ChargeReplication(uint64_t num_writes);

  // NB: Result::status() returns by value, so these must too.
  static Status StatusOf(const Status& status) { return status; }
  template <typename T>
  static Status StatusOf(const Result<T>& result) {
    return result.status();
  }

  /// Issues one request against the cluster with the fault plan applied:
  /// may crash-stop a node, charge a latency spike, drop the request
  /// (nothing executed) or drop the response (executed, outcome lost).
  template <typename Send>
  auto IssueOnce(sim::FaultOpClass op, TableId table, Send&& send)
      -> decltype(send()) {
    if (options_.fault_injector == nullptr) return send();
    sim::FaultInjector::Decision d =
        options_.fault_injector->OnRequest(op, table);
    if (d.kill_node >= 0 &&
        d.kill_node < static_cast<int64_t>(cluster_->num_nodes())) {
      cluster_->node(static_cast<uint32_t>(d.kill_node))->Kill();
    }
    if (d.extra_latency_ns > 0) clock_->Advance(d.extra_latency_ns);
    if (d.drop_request) {
      return Status::Unavailable("injected fault: request dropped");
    }
    auto result = send();
    if (d.drop_response) {
      return Status::Unavailable(
          "injected fault: response dropped (ambiguous outcome)");
    }
    return result;
  }

  /// The single retry loop every path uses, seeded with the result of an
  /// already-issued first attempt (the pipeline issues first attempts inside
  /// a coalesced message, then runs this loop per still-Unavailable logical
  /// request). `send` re-issues the request; `resolve` is consulted after an
  /// Unavailable attempt and before the re-issue: it returns a final result
  /// if it can prove the ambiguous write's outcome (applied / superseded),
  /// or nullopt to re-issue.
  template <typename R, typename Send, typename Resolve>
  R RetryLoop(sim::FaultOpClass op, TableId table, R result, Send&& send,
              Resolve&& resolve) {
    for (uint32_t retry = 1; StatusOf(result).IsUnavailable() &&
                             retry < options_.retry.max_attempts;
         ++retry) {
      // Fail-over first: a dead master stays dead until the management node
      // promotes a replica, so retrying without it is pointless. Consulting
      // the lookup service costs one small round trip.
      if (management_ != nullptr) {
        (void)management_->DetectAndRecover();
        ChargeRequest(64, 64);
      }
      uint64_t backoff = options_.retry.BackoffNs(retry, &rng_);
      clock_->Advance(backoff);
      metrics_->storage_retries += 1;
      metrics_->retry_backoff_ns += backoff;
      auto resolved = resolve();
      if (resolved.has_value()) {
        metrics_->ambiguous_resolved += 1;
        return std::move(*resolved);
      }
      result = IssueOnce(op, table, send);
    }
    if (StatusOf(result).IsUnavailable()) {
      metrics_->storage_retries_exhausted += 1;
    }
    return result;
  }

  template <typename Send, typename Resolve>
  auto IssueWithRetry(sim::FaultOpClass op, TableId table, Send&& send,
                      Resolve&& resolve) -> decltype(send()) {
    return RetryLoop(op, table, IssueOnce(op, table, send),
                     std::forward<Send>(send), std::forward<Resolve>(resolve));
  }

  /// Idempotent ops (reads, scans, unconditional puts, increments): no
  /// ambiguity resolution, plain bounded re-issue.
  template <typename Send>
  auto IssueWithRetry(sim::FaultOpClass op, TableId table, Send&& send)
      -> decltype(send()) {
    using R = decltype(send());
    return IssueWithRetry(op, table, std::forward<Send>(send),
                          []() -> std::optional<R> { return std::nullopt; });
  }

  /// Whether reads may take the one-sided path (client opted in AND the
  /// network model supports RDMA READs).
  bool OneSidedEnabled() const {
    return options_.one_sided_reads && options_.network.HasOneSidedReads();
  }

  /// Current lease epoch of the partition owning (table, key); 0 when the
  /// partition cannot be resolved (the fetch will fail the same way).
  uint64_t LeaseEpochOf(TableId table, std::string_view key) const;

  /// The fill epoch a two-sided get samples before its fetch: the lease
  /// epoch with a record cache attached, else 0 (CacheFill drops it unread,
  /// so the partition lookup is skipped).
  uint64_t FillEpochOf(TableId table, std::string_view key) const {
    return options_.record_cache == nullptr ? 0 : LeaseEpochOf(table, key);
  }

  /// Record-cache probe. On a hit fills `out` (byte-identical to a fresh
  /// fetch by the lease protocol) and counts a cache hit; no network is
  /// charged. Counts a miss otherwise. No-op false without a cache.
  bool CacheProbe(TableId table, std::string_view key, VersionedCell* out);

  /// Installs a fetched cell with the epoch sampled before the fetch.
  void CacheFill(TableId table, std::string_view key,
                 const VersionedCell& cell, uint64_t fill_epoch);

  /// One attempt of the one-sided protocol, uncharged: samples the epoch,
  /// fetches the raw cell bypassing the storage-node request path, and
  /// re-samples to validate. Returns the result (possibly NotFound) with
  /// `fill_epoch`/`response_bytes` set, or nullopt when validation failed —
  /// epoch moved, injected fault, or node down — in which case the caller
  /// counts the fallback and uses the two-sided path.
  std::optional<Result<VersionedCell>> OneSidedFetch(TableId table,
                                                     std::string_view key,
                                                     uint64_t* fill_epoch,
                                                     uint64_t* response_bytes);

  /// Charges one one-sided READ: NetworkModel::OneSidedReadCost, no
  /// per-request framing and no software overhead.
  void ChargeOneSidedRead(uint64_t request_bytes, uint64_t response_bytes);

  /// Shared body of Get and the immediate (non-pipelined) AsyncOneSidedGet:
  /// cache probe, optional one-sided attempt, two-sided fallback + fill.
  Result<VersionedCell> GetImpl(TableId table, std::string_view key,
                                bool try_one_sided);

  /// Retried single-op primitives without cost accounting; the public
  /// methods and the batch paths layer their own request charges on top.
  Result<VersionedCell> GetWithRetry(TableId table, std::string_view key);
  Result<uint64_t> PutWithRetry(TableId table, std::string_view key,
                                std::string_view value);
  Result<uint64_t> ConditionalPutWithRetry(TableId table, std::string_view key,
                                           uint64_t expected_stamp,
                                           std::string_view value);
  Status EraseWithRetry(TableId table, std::string_view key);
  Status ConditionalEraseWithRetry(TableId table, std::string_view key,
                                   uint64_t expected_stamp);

  /// Ambiguity resolvers shared by the *WithRetry primitives and the
  /// pipeline: re-read the cell and decide the outcome of a conditional
  /// write/erase whose response was lost, or return nullopt to re-issue.
  std::optional<Result<uint64_t>> ResolveAmbiguousConditionalPut(
      TableId table, std::string_view key, uint64_t expected_stamp,
      std::string_view value);
  std::optional<Status> ResolveAmbiguousErase(TableId table,
                                              std::string_view key);
  std::optional<Status> ResolveAmbiguousConditionalErase(
      TableId table, std::string_view key, uint64_t expected_stamp);

  /// One logical request waiting in the pipeline.
  struct PendingOp {
    enum class Kind : uint8_t {
      kGet,
      kPut,
      kConditionalPut,
      kErase,
      kConditionalErase,
    };
    Kind kind;
    TableId table;
    std::string key;
    std::string value;               // puts only
    uint64_t expected_stamp = 0;     // conditional ops only
    /// kGet only: attempt the one-sided path for this op at flush time.
    bool one_sided = false;
    /// kGet only: lease epoch sampled immediately before the fetch executed
    /// (the cache-fill tag and the seqlock "before" sample).
    uint64_t fill_epoch = 0;
    // Exactly one of the two states is set, matching `kind`.
    std::shared_ptr<internal::FutureState<VersionedCell>> get_state;
    std::shared_ptr<internal::FutureState<uint64_t>> write_state;
    // First-attempt results, filled while executing the coalesced message.
    std::optional<Result<VersionedCell>> get_result;
    std::optional<Result<uint64_t>> write_result;
  };

  static sim::FaultOpClass OpClassOf(PendingOp::Kind kind);
  /// Raw single-op execution against the cluster (no injection, no charges);
  /// fills the op's first-attempt result and returns its response bytes.
  uint64_t ExecuteRaw(PendingOp* op);
  /// Runs the RetryPolicy for a first attempt that came back Unavailable,
  /// applies ambiguity resolution, and resolves the op's future.
  void ResolvePending(PendingOp* op, uint64_t* replicated_writes);

  Cluster* const cluster_;
  ManagementNode* const management_;
  const ClientOptions options_;
  sim::VirtualClock* const clock_;
  sim::WorkerMetrics* const metrics_;
  /// Private RNG for backoff jitter (seeded; decorrelates workers without
  /// giving up reproducibility).
  Random rng_;
  /// Async requests enqueued since the last Flush().
  std::vector<PendingOp> pending_;
};

}  // namespace tell::store

#endif  // TELL_STORE_STORAGE_CLIENT_H_
