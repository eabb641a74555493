#include "store/storage_client.h"

#include <algorithm>
#include <map>

#include "common/logging.h"

namespace tell::store {

namespace {
// Fixed wire framing per logical op inside a request (op code, table id,
// lengths).
constexpr uint64_t kPerOpHeaderBytes = 16;
// Fixed framing per request (rpc header).
constexpr uint64_t kPerRequestHeaderBytes = 32;
}  // namespace

void StorageClient::ChargeRequest(uint64_t request_bytes,
                                  uint64_t response_bytes) {
  clock_->Advance(options_.network.RequestCost(
      request_bytes + kPerRequestHeaderBytes, response_bytes));
  metrics_->storage_requests += 1;
  metrics_->bytes_sent += request_bytes + kPerRequestHeaderBytes;
  metrics_->bytes_received += response_bytes;
}

void StorageClient::ChargeParallelRequests(
    const std::vector<std::pair<uint64_t, uint64_t>>& per_request_bytes) {
  uint64_t max_cost = 0;
  for (const auto& [req, resp] : per_request_bytes) {
    max_cost = std::max(max_cost, options_.network.RequestCost(
                                      req + kPerRequestHeaderBytes, resp));
    metrics_->storage_requests += 1;
    metrics_->bytes_sent += req + kPerRequestHeaderBytes;
    metrics_->bytes_received += resp;
  }
  clock_->Advance(max_cost);
}

void StorageClient::ChargeReplication(uint64_t num_writes) {
  // Synchronous replication: the master does not acknowledge until the
  // backups have the write. Replication of the writes inside one request is
  // processed per record on the master (RamCloud forwards each object to
  // its backups and waits for the ack before acknowledging the client), so
  // the charge scales with the number of written records times the backup
  // chain length. The factor 2 covers the backup's write path (forward +
  // log append + ack), which measured RamCloud numbers put at roughly two
  // round-trip equivalents per backup.
  constexpr uint64_t kBackupWritePathFactor = 2;
  clock_->Advance(num_writes * kBackupWritePathFactor *
                  static_cast<uint64_t>(options_.replication_extra_hops) *
                  (options_.network.base_rtt_ns +
                   options_.network.software_overhead_ns));
}

uint64_t StorageClient::LeaseEpochOf(TableId table,
                                     std::string_view key) const {
  auto partition = cluster_->partition_map().PartitionFor(table, key);
  if (!partition.ok()) return 0;
  return cluster_->lease_epochs().Epoch(table, *partition);
}

bool StorageClient::CacheProbe(TableId table, std::string_view key,
                               VersionedCell* out) {
  if (options_.record_cache == nullptr) return false;
  // Sampling the epoch *now* and requiring the entry's fill epoch to match
  // makes the hit byte-identical to a fresh fetch at this instant — the
  // read's linearization point (store/record_cache.h has the proof).
  uint64_t epoch = LeaseEpochOf(table, key);
  if (options_.record_cache->Get(table, key, epoch, out)) {
    metrics_->cache_hits += 1;
    return true;
  }
  metrics_->cache_misses += 1;
  return false;
}

void StorageClient::CacheFill(TableId table, std::string_view key,
                              const VersionedCell& cell, uint64_t fill_epoch) {
  if (options_.record_cache == nullptr) return;
  options_.record_cache->Put(table, key, cell, fill_epoch);
}

void StorageClient::ChargeOneSidedRead(uint64_t request_bytes,
                                       uint64_t response_bytes) {
  clock_->Advance(
      options_.network.OneSidedReadCost(request_bytes, response_bytes));
  metrics_->storage_requests += 1;
  metrics_->bytes_sent += request_bytes;
  metrics_->bytes_received += response_bytes;
}

std::optional<Result<VersionedCell>> StorageClient::OneSidedFetch(
    TableId table, std::string_view key, uint64_t* fill_epoch,
    uint64_t* response_bytes) {
  // Seqlock-style validation: sample the partition's lease epoch, fetch the
  // raw cell, re-sample. An unchanged epoch proves no write raced the fetch
  // (every write bumps the epoch after mutating, inside its critical
  // section), so the bytes are exactly what a two-sided Get would return.
  uint64_t e0 = LeaseEpochOf(table, key);
  if (options_.fault_injector != nullptr) {
    sim::FaultInjector::Decision d = options_.fault_injector->OnRequest(
        sim::FaultOpClass::kOneSidedGet, table);
    if (d.kill_node >= 0 &&
        d.kill_node < static_cast<int64_t>(cluster_->num_nodes())) {
      cluster_->node(static_cast<uint32_t>(d.kill_node))->Kill();
    }
    if (d.extra_latency_ns > 0) clock_->Advance(d.extra_latency_ns);
    if (d.drop_request || d.drop_response) {
      // A lost READ work request or completion: the client cannot tell what
      // happened and simply re-issues through the two-sided path.
      metrics_->onesided_validation_failures += 1;
      return std::nullopt;
    }
  }
  auto result = cluster_->OneSidedGet(table, key);
  if (!result.ok() && !result.status().IsNotFound()) {
    // Unroutable or dead node. The one-sided path has no fail-over story of
    // its own (there is no server to ask), so hand the op to the two-sided
    // retry machinery. NotFound is NOT a failure: with a valid epoch it is
    // the correct answer for an absent key.
    return std::nullopt;
  }
  uint64_t e1 = LeaseEpochOf(table, key);
  if (e1 != e0) {
    metrics_->onesided_validation_failures += 1;
    return std::nullopt;
  }
  *fill_epoch = e0;
  *response_bytes = result.ok() ? result->value.size() + 8 : 8;
  metrics_->onesided_reads += 1;
  return result;
}

Result<VersionedCell> StorageClient::GetImpl(TableId table,
                                             std::string_view key,
                                             bool try_one_sided) {
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  VersionedCell cached;
  if (CacheProbe(table, key, &cached)) return cached;
  if (try_one_sided) {
    uint64_t fill_epoch = 0;
    uint64_t response_bytes = 0;
    auto fetched = OneSidedFetch(table, key, &fill_epoch, &response_bytes);
    if (fetched.has_value()) {
      ChargeOneSidedRead(key.size() + kPerOpHeaderBytes, response_bytes);
      if (fetched->ok()) CacheFill(table, key, **fetched, fill_epoch);
      return std::move(*fetched);
    }
    metrics_->onesided_fallbacks += 1;
  }
  // Two-sided path. The fill epoch is sampled before the fetch (a write
  // racing the gap only causes a spurious invalidation later, never a stale
  // hit — see store/record_cache.h).
  uint64_t fill_epoch = FillEpochOf(table, key);
  auto result = GetWithRetry(table, key);
  uint64_t response_bytes = result.ok() ? result->value.size() + 8 : 8;
  ChargeRequest(key.size() + kPerOpHeaderBytes, response_bytes);
  if (result.ok()) CacheFill(table, key, *result, fill_epoch);
  return result;
}

Result<VersionedCell> StorageClient::GetWithRetry(TableId table,
                                                  std::string_view key) {
  return IssueWithRetry(sim::FaultOpClass::kGet, table,
                        [&] { return cluster_->Get(table, key); });
}

Result<uint64_t> StorageClient::PutWithRetry(TableId table,
                                             std::string_view key,
                                             std::string_view value) {
  // Unconditional puts are idempotent in value (a re-applied put just mints
  // a fresh stamp), so a lost response is resolved by re-issuing.
  return IssueWithRetry(sim::FaultOpClass::kPut, table,
                        [&] { return cluster_->Put(table, key, value); });
}

// A conditional put with a lost response is ambiguous: blindly re-issuing
// after it DID apply would see its own stamp and report ConditionFailed,
// turning a committed write into a spurious abort. So before each
// re-issue, re-read the cell and decide:
//   * stamp still == expected  -> nothing applied, safe to re-issue;
//   * cell holds OUR value     -> the lost write applied; its (observed)
//                                 stamp is the success result;
//   * anything else            -> a concurrent writer won: genuine
//                                 ConditionFailed.
std::optional<Result<uint64_t>> StorageClient::ResolveAmbiguousConditionalPut(
    TableId table, std::string_view key, uint64_t expected_stamp,
    std::string_view value) {
  auto cell = GetWithRetry(table, key);
  ChargeRequest(key.size() + kPerOpHeaderBytes,
                cell.ok() ? cell->value.size() + 8 : 8);
  if (!cell.ok()) {
    if (cell.status().IsNotFound()) {
      if (expected_stamp == kStampAbsent) return std::nullopt;
      return std::optional<Result<uint64_t>>(Status::ConditionFailed(
          "cell erased during ambiguous conditional put"));
    }
    return std::nullopt;  // unresolved; the stamp check keeps a re-issue safe
  }
  if (cell->stamp == expected_stamp) return std::nullopt;  // not applied
  if (cell->value == value) {
    return std::optional<Result<uint64_t>>(uint64_t{cell->stamp});
  }
  return std::optional<Result<uint64_t>>(Status::ConditionFailed(
      "concurrent write superseded ambiguous conditional put"));
}

// The postcondition of an erase is "key absent", so an ambiguous attempt
// resolves by re-reading: absent -> done.
std::optional<Status> StorageClient::ResolveAmbiguousErase(
    TableId table, std::string_view key) {
  auto cell = GetWithRetry(table, key);
  ChargeRequest(key.size() + kPerOpHeaderBytes, 8);
  if (cell.status().IsNotFound()) return Status::OK();
  return std::nullopt;
}

// Same ambiguity as the conditional put: absent -> our erase applied;
// stamp unchanged -> not applied, re-issue; new stamp -> someone else
// wrote, genuine ConditionFailed.
std::optional<Status> StorageClient::ResolveAmbiguousConditionalErase(
    TableId table, std::string_view key, uint64_t expected_stamp) {
  auto cell = GetWithRetry(table, key);
  ChargeRequest(key.size() + kPerOpHeaderBytes,
                cell.ok() ? cell->value.size() + 8 : 8);
  if (cell.status().IsNotFound()) return Status::OK();
  if (!cell.ok()) return std::nullopt;
  if (cell->stamp == expected_stamp) return std::nullopt;  // not applied
  return Status::ConditionFailed(
      "cell overwritten during ambiguous conditional erase");
}

Result<uint64_t> StorageClient::ConditionalPutWithRetry(
    TableId table, std::string_view key, uint64_t expected_stamp,
    std::string_view value) {
  auto send = [&] {
    return cluster_->ConditionalPut(table, key, expected_stamp, value);
  };
  auto resolve = [&] {
    return ResolveAmbiguousConditionalPut(table, key, expected_stamp, value);
  };
  return IssueWithRetry(sim::FaultOpClass::kConditionalPut, table, send,
                        resolve);
}

Status StorageClient::EraseWithRetry(TableId table, std::string_view key) {
  auto send = [&] { return cluster_->Erase(table, key); };
  auto resolve = [&] { return ResolveAmbiguousErase(table, key); };
  return IssueWithRetry(sim::FaultOpClass::kErase, table, send, resolve);
}

Status StorageClient::ConditionalEraseWithRetry(TableId table,
                                                std::string_view key,
                                                uint64_t expected_stamp) {
  auto send = [&] {
    return cluster_->ConditionalErase(table, key, expected_stamp);
  };
  auto resolve = [&] {
    return ResolveAmbiguousConditionalErase(table, key, expected_stamp);
  };
  return IssueWithRetry(sim::FaultOpClass::kConditionalErase, table, send,
                        resolve);
}

sim::FaultOpClass StorageClient::OpClassOf(PendingOp::Kind kind) {
  switch (kind) {
    case PendingOp::Kind::kGet:
      return sim::FaultOpClass::kGet;
    case PendingOp::Kind::kPut:
      return sim::FaultOpClass::kPut;
    case PendingOp::Kind::kConditionalPut:
      return sim::FaultOpClass::kConditionalPut;
    case PendingOp::Kind::kErase:
      return sim::FaultOpClass::kErase;
    case PendingOp::Kind::kConditionalErase:
      return sim::FaultOpClass::kConditionalErase;
  }
  return sim::FaultOpClass::kAny;
}

Future<VersionedCell> StorageClient::AsyncGet(TableId table,
                                              std::string_view key) {
  if (!options_.pipelining) {
    Promise<VersionedCell> promise;
    promise.Set(Get(table, key));
    return promise.future();
  }
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  // A cache hit needs no network at all, so it resolves at enqueue time
  // (the probe instant is the read's linearization point) instead of
  // occupying a slot in the flushed message.
  VersionedCell cached;
  if (CacheProbe(table, key, &cached)) {
    Promise<VersionedCell> promise;
    promise.Set(Result<VersionedCell>(std::move(cached)));
    return promise.future();
  }
  PendingOp op;
  op.kind = PendingOp::Kind::kGet;
  op.table = table;
  op.key = std::string(key);
  op.one_sided = OneSidedEnabled();
  op.get_state = std::make_shared<internal::FutureState<VersionedCell>>();
  op.get_state->flusher = this;
  Future<VersionedCell> future{op.get_state};
  pending_.push_back(std::move(op));
  return future;
}

Future<VersionedCell> StorageClient::AsyncOneSidedGet(TableId table,
                                                      std::string_view key) {
  // Forced one-sided read: attempt the RDMA READ protocol whenever the
  // network model is capable, even if ClientOptions::one_sided_reads is off
  // (callers that explicitly fetch raw cells, e.g. microbenchmarks and
  // tests). On a kernel-TCP model this is exactly AsyncGet.
  const bool capable = options_.network.HasOneSidedReads();
  if (!options_.pipelining) {
    Promise<VersionedCell> promise;
    promise.Set(GetImpl(table, key, capable));
    return promise.future();
  }
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  VersionedCell cached;
  if (CacheProbe(table, key, &cached)) {
    Promise<VersionedCell> promise;
    promise.Set(Result<VersionedCell>(std::move(cached)));
    return promise.future();
  }
  PendingOp op;
  op.kind = PendingOp::Kind::kGet;
  op.table = table;
  op.key = std::string(key);
  op.one_sided = capable;
  op.get_state = std::make_shared<internal::FutureState<VersionedCell>>();
  op.get_state->flusher = this;
  Future<VersionedCell> future{op.get_state};
  pending_.push_back(std::move(op));
  return future;
}

Future<uint64_t> StorageClient::AsyncPut(TableId table, std::string_view key,
                                         std::string_view value) {
  if (!options_.pipelining) {
    Promise<uint64_t> promise;
    promise.Set(Put(table, key, value));
    return promise.future();
  }
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  PendingOp op;
  op.kind = PendingOp::Kind::kPut;
  op.table = table;
  op.key = std::string(key);
  op.value = std::string(value);
  op.write_state = std::make_shared<internal::FutureState<uint64_t>>();
  op.write_state->flusher = this;
  Future<uint64_t> future{op.write_state};
  pending_.push_back(std::move(op));
  return future;
}

Future<uint64_t> StorageClient::AsyncConditionalPut(TableId table,
                                                    std::string_view key,
                                                    uint64_t expected_stamp,
                                                    std::string_view value) {
  if (!options_.pipelining) {
    Promise<uint64_t> promise;
    promise.Set(ConditionalPut(table, key, expected_stamp, value));
    return promise.future();
  }
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  PendingOp op;
  op.kind = PendingOp::Kind::kConditionalPut;
  op.table = table;
  op.key = std::string(key);
  op.value = std::string(value);
  op.expected_stamp = expected_stamp;
  op.write_state = std::make_shared<internal::FutureState<uint64_t>>();
  op.write_state->flusher = this;
  Future<uint64_t> future{op.write_state};
  pending_.push_back(std::move(op));
  return future;
}

Future<uint64_t> StorageClient::AsyncErase(TableId table,
                                           std::string_view key) {
  if (!options_.pipelining) {
    Promise<uint64_t> promise;
    Status status = Erase(table, key);
    promise.Set(status.ok() ? Result<uint64_t>(uint64_t{0})
                            : Result<uint64_t>(status));
    return promise.future();
  }
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  PendingOp op;
  op.kind = PendingOp::Kind::kErase;
  op.table = table;
  op.key = std::string(key);
  op.write_state = std::make_shared<internal::FutureState<uint64_t>>();
  op.write_state->flusher = this;
  Future<uint64_t> future{op.write_state};
  pending_.push_back(std::move(op));
  return future;
}

Future<uint64_t> StorageClient::AsyncConditionalErase(TableId table,
                                                      std::string_view key,
                                                      uint64_t expected_stamp) {
  if (!options_.pipelining) {
    Promise<uint64_t> promise;
    Status status = ConditionalErase(table, key, expected_stamp);
    promise.Set(status.ok() ? Result<uint64_t>(uint64_t{0})
                            : Result<uint64_t>(status));
    return promise.future();
  }
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  PendingOp op;
  op.kind = PendingOp::Kind::kConditionalErase;
  op.table = table;
  op.key = std::string(key);
  op.expected_stamp = expected_stamp;
  op.write_state = std::make_shared<internal::FutureState<uint64_t>>();
  op.write_state->flusher = this;
  Future<uint64_t> future{op.write_state};
  pending_.push_back(std::move(op));
  return future;
}

uint64_t StorageClient::ExecuteRaw(PendingOp* op) {
  switch (op->kind) {
    case PendingOp::Kind::kGet: {
      op->get_result = cluster_->Get(op->table, op->key);
      return op->get_result->ok() ? (**op->get_result).value.size() + 8 : 8;
    }
    case PendingOp::Kind::kPut:
      op->write_result = cluster_->Put(op->table, op->key, op->value);
      return 16;
    case PendingOp::Kind::kConditionalPut:
      op->write_result = cluster_->ConditionalPut(op->table, op->key,
                                                  op->expected_stamp,
                                                  op->value);
      return 16;
    case PendingOp::Kind::kErase: {
      Status status = cluster_->Erase(op->table, op->key);
      op->write_result = status.ok() ? Result<uint64_t>(uint64_t{0})
                                     : Result<uint64_t>(status);
      return 16;
    }
    case PendingOp::Kind::kConditionalErase: {
      Status status =
          cluster_->ConditionalErase(op->table, op->key, op->expected_stamp);
      op->write_result = status.ok() ? Result<uint64_t>(uint64_t{0})
                                     : Result<uint64_t>(status);
      return 16;
    }
  }
  return 0;
}

void StorageClient::ResolvePending(PendingOp* op,
                                   uint64_t* replicated_writes) {
  switch (op->kind) {
    case PendingOp::Kind::kGet: {
      auto send = [&] { return cluster_->Get(op->table, op->key); };
      auto result = RetryLoop(
          sim::FaultOpClass::kGet, op->table, std::move(*op->get_result), send,
          []() -> std::optional<Result<VersionedCell>> { return std::nullopt; });
      op->get_state->Resolve(std::move(result));
      return;
    }
    case PendingOp::Kind::kPut: {
      auto send = [&] { return cluster_->Put(op->table, op->key, op->value); };
      auto result = RetryLoop(
          sim::FaultOpClass::kPut, op->table, std::move(*op->write_result),
          send, []() -> std::optional<Result<uint64_t>> { return std::nullopt; });
      if (result.ok()) ++*replicated_writes;
      op->write_state->Resolve(std::move(result));
      return;
    }
    case PendingOp::Kind::kConditionalPut: {
      auto send = [&] {
        return cluster_->ConditionalPut(op->table, op->key, op->expected_stamp,
                                        op->value);
      };
      auto resolve = [&] {
        return ResolveAmbiguousConditionalPut(op->table, op->key,
                                              op->expected_stamp, op->value);
      };
      auto result = RetryLoop(sim::FaultOpClass::kConditionalPut, op->table,
                              std::move(*op->write_result), send, resolve);
      if (result.status().IsConditionFailed()) metrics_->llsc_failures += 1;
      if (result.ok()) ++*replicated_writes;
      op->write_state->Resolve(std::move(result));
      return;
    }
    case PendingOp::Kind::kErase: {
      auto send = [&] { return cluster_->Erase(op->table, op->key); };
      auto resolve = [&] { return ResolveAmbiguousErase(op->table, op->key); };
      Status initial = op->write_result->ok() ? Status::OK()
                                              : op->write_result->status();
      Status status = RetryLoop(sim::FaultOpClass::kErase, op->table,
                                std::move(initial), send, resolve);
      op->write_state->Resolve(status.ok() ? Result<uint64_t>(uint64_t{0})
                                           : Result<uint64_t>(status));
      return;
    }
    case PendingOp::Kind::kConditionalErase: {
      auto send = [&] {
        return cluster_->ConditionalErase(op->table, op->key,
                                          op->expected_stamp);
      };
      auto resolve = [&] {
        return ResolveAmbiguousConditionalErase(op->table, op->key,
                                                op->expected_stamp);
      };
      Status initial = op->write_result->ok() ? Status::OK()
                                              : op->write_result->status();
      Status status = RetryLoop(sim::FaultOpClass::kConditionalErase,
                                op->table, std::move(initial), send, resolve);
      if (status.IsConditionFailed()) metrics_->llsc_failures += 1;
      op->write_state->Resolve(status.ok() ? Result<uint64_t>(uint64_t{0})
                                           : Result<uint64_t>(status));
      return;
    }
  }
}

void StorageClient::Flush() {
  if (pending_.empty()) return;
  std::vector<PendingOp> ops = std::move(pending_);
  pending_.clear();
  metrics_->pipeline_flushes += 1;
  metrics_->pipeline_in_flight.Record(ops.size());

  uint64_t slowest_message_ns = 0;
  uint64_t total_serial_ns = 0;

  // One-sided pre-pass: eligible reads are issued as individual RDMA READs
  // flying in parallel with the coalesced messages below (each READ is its
  // own "message" for the slowest-message clock advance). A read that
  // validates resolves here; one that does not joins its node's two-sided
  // message like any other get.
  std::vector<bool> one_sided_done(ops.size(), false);
  for (size_t i = 0; i < ops.size(); ++i) {
    PendingOp& op = ops[i];
    if (op.kind != PendingOp::Kind::kGet || !op.one_sided) continue;
    uint64_t fill_epoch = 0;
    uint64_t response_bytes = 0;
    auto fetched = OneSidedFetch(op.table, op.key, &fill_epoch,
                                 &response_bytes);
    if (!fetched.has_value()) {
      metrics_->onesided_fallbacks += 1;
      continue;
    }
    op.get_result = std::move(*fetched);
    one_sided_done[i] = true;
    uint64_t request_bytes = op.key.size() + kPerOpHeaderBytes;
    uint64_t cost =
        options_.network.OneSidedReadCost(request_bytes, response_bytes);
    metrics_->storage_requests += 1;
    metrics_->bytes_sent += request_bytes;
    metrics_->bytes_received += response_bytes;
    if (op.get_result->ok()) {
      CacheFill(op.table, op.key, **op.get_result, fill_epoch);
    }
    slowest_message_ns = std::max(slowest_message_ns, cost);
    total_serial_ns += cost;
  }

  // One coalesced message per master storage node, issued in parallel
  // (std::map keeps the group order deterministic).
  std::map<uint32_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (one_sided_done[i]) continue;
    auto master = cluster_->MasterOf(ops[i].table, ops[i].key);
    groups[master.ok() ? *master : 0].push_back(i);
  }
  for (const auto& [node, members] : groups) {
    (void)node;
    // Fault injection observes the same unit the accounting charges: one
    // consultation per coalesced message, a firing drop affecting every op
    // inside it.
    sim::FaultInjector::Decision d;
    if (options_.fault_injector != nullptr) {
      std::vector<std::pair<sim::FaultOpClass, uint32_t>> classes;
      classes.reserve(members.size());
      for (size_t i : members) {
        classes.emplace_back(OpClassOf(ops[i].kind), ops[i].table);
      }
      d = options_.fault_injector->OnMessage(classes);
    }
    if (d.kill_node >= 0 &&
        d.kill_node < static_cast<int64_t>(cluster_->num_nodes())) {
      cluster_->node(static_cast<uint32_t>(d.kill_node))->Kill();
    }
    std::vector<std::pair<uint64_t, uint64_t>> per_op_bytes;
    per_op_bytes.reserve(members.size());
    uint64_t sent = kPerRequestHeaderBytes;
    uint64_t received = 0;
    for (size_t i : members) {
      PendingOp& op = ops[i];
      uint64_t request_bytes =
          op.key.size() + op.value.size() + kPerOpHeaderBytes;
      uint64_t response_bytes = 0;
      if (d.drop_request) {
        // The message never reached the node: nothing executed, no response
        // bytes received or charged.
        Status lost = Status::Unavailable("injected fault: request dropped");
        if (op.kind == PendingOp::Kind::kGet) {
          op.get_result = Result<VersionedCell>(lost);
        } else {
          op.write_result = Result<uint64_t>(lost);
        }
      } else {
        if (op.kind == PendingOp::Kind::kGet) {
          // Cache-fill tag: the epoch must be sampled before the fetch
          // executes (store/record_cache.h).
          op.fill_epoch = FillEpochOf(op.table, op.key);
        }
        response_bytes = ExecuteRaw(&op);
        if (d.drop_response) {
          // Executed, but the response message was lost: every op in it is
          // ambiguous and no bytes came back.
          Status lost = Status::Unavailable(
              "injected fault: response dropped (ambiguous outcome)");
          if (op.kind == PendingOp::Kind::kGet) {
            op.get_result = Result<VersionedCell>(lost);
          } else {
            op.write_result = Result<uint64_t>(lost);
          }
          response_bytes = 0;
        } else if (op.kind == PendingOp::Kind::kGet && op.get_result->ok()) {
          CacheFill(op.table, op.key, **op.get_result, op.fill_epoch);
        }
      }
      per_op_bytes.emplace_back(request_bytes, response_bytes);
      sent += request_bytes;
      received += response_bytes;
    }
    auto cost = options_.network.CoalescedRequestCost(per_op_bytes,
                                                      kPerRequestHeaderBytes);
    metrics_->storage_requests += 1;
    metrics_->bytes_sent += sent;
    metrics_->bytes_received += received;
    metrics_->batch_size.Record(members.size());
    metrics_->pipeline_batch_size.Record(members.size());
    slowest_message_ns =
        std::max(slowest_message_ns, cost.message_ns + d.extra_latency_ns);
    total_serial_ns += cost.serial_ns + d.extra_latency_ns;
  }
  clock_->Advance(slowest_message_ns);
  if (total_serial_ns > slowest_message_ns) {
    metrics_->pipeline_overlap_saved_ns += total_serial_ns - slowest_message_ns;
  }

  // Per-logical-request failure handling: every op whose first (coalesced)
  // attempt came back Unavailable now runs the ordinary RetryPolicy —
  // fail-over, jittered backoff, ambiguous-write resolution — before its
  // future resolves.
  uint64_t replicated_writes = 0;
  for (PendingOp& op : ops) ResolvePending(&op, &replicated_writes);
  ChargeReplication(replicated_writes);
}

Result<VersionedCell> StorageClient::Get(TableId table, std::string_view key) {
  return GetImpl(table, key, OneSidedEnabled());
}

std::vector<Result<VersionedCell>> StorageClient::BatchGet(
    const std::vector<GetOp>& ops) {
  if (options_.pipelining) {
    // Async enqueue + one flush; the Async/Flush path owns all accounting.
    std::vector<Future<VersionedCell>> futures;
    futures.reserve(ops.size());
    for (const auto& op : ops) futures.push_back(AsyncGet(op.table, op.key));
    Flush();
    std::vector<Result<VersionedCell>> results;
    results.reserve(futures.size());
    for (auto& future : futures) results.push_back(future.Await());
    return results;
  }

  std::vector<Result<VersionedCell>> results;
  results.reserve(ops.size());
  metrics_->storage_ops += ops.size();
  clock_->Advance(options_.cpu.per_op_ns * ops.size());

  if (!options_.batching) {
    // Ablation mode: one sequential round trip per logical op. Cache hits
    // and one-sided reads still apply — that ablation isolates *batching*.
    for (const auto& op : ops) {
      VersionedCell cached;
      if (CacheProbe(op.table, op.key, &cached)) {
        results.push_back(std::move(cached));
        continue;
      }
      if (OneSidedEnabled()) {
        uint64_t fill_epoch = 0;
        uint64_t response_bytes = 0;
        auto fetched = OneSidedFetch(op.table, op.key, &fill_epoch,
                                     &response_bytes);
        if (fetched.has_value()) {
          ChargeOneSidedRead(op.key.size() + kPerOpHeaderBytes,
                             response_bytes);
          if (fetched->ok()) CacheFill(op.table, op.key, **fetched, fill_epoch);
          results.push_back(std::move(*fetched));
          continue;
        }
        metrics_->onesided_fallbacks += 1;
      }
      uint64_t fill_epoch = FillEpochOf(op.table, op.key);
      auto result = GetWithRetry(op.table, op.key);
      uint64_t response_bytes = result.ok() ? result->value.size() + 8 : 8;
      ChargeRequest(op.key.size() + kPerOpHeaderBytes, response_bytes);
      if (result.ok()) CacheFill(op.table, op.key, *result, fill_epoch);
      results.push_back(std::move(result));
    }
    return results;
  }

  // Group ops by master storage node; one request per node, in parallel.
  // Cache hits cost nothing; one-sided reads fly as individual READs next
  // to the coalesced two-sided requests, so the charged time is the max
  // over all of them.
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> group_bytes;
  std::map<uint32_t, uint64_t> group_ops;
  uint64_t max_parallel_ns = 0;
  for (const auto& op : ops) {
    VersionedCell cached;
    if (CacheProbe(op.table, op.key, &cached)) {
      results.push_back(std::move(cached));
      continue;
    }
    if (OneSidedEnabled()) {
      uint64_t fill_epoch = 0;
      uint64_t response_bytes = 0;
      auto fetched = OneSidedFetch(op.table, op.key, &fill_epoch,
                                   &response_bytes);
      if (fetched.has_value()) {
        uint64_t request_bytes = op.key.size() + kPerOpHeaderBytes;
        metrics_->storage_requests += 1;
        metrics_->bytes_sent += request_bytes;
        metrics_->bytes_received += response_bytes;
        max_parallel_ns = std::max(
            max_parallel_ns,
            options_.network.OneSidedReadCost(request_bytes, response_bytes));
        if (fetched->ok()) CacheFill(op.table, op.key, **fetched, fill_epoch);
        results.push_back(std::move(*fetched));
        continue;
      }
      metrics_->onesided_fallbacks += 1;
    }
    uint64_t fill_epoch = FillEpochOf(op.table, op.key);
    auto result = GetWithRetry(op.table, op.key);
    auto master = cluster_->MasterOf(op.table, op.key);
    uint32_t node = master.ok() ? *master : 0;
    auto& [req, resp] = group_bytes[node];
    req += op.key.size() + kPerOpHeaderBytes;
    resp += result.ok() ? result->value.size() + 8 : 8;
    group_ops[node] += 1;
    if (result.ok()) CacheFill(op.table, op.key, *result, fill_epoch);
    results.push_back(std::move(result));
  }
  for (const auto& [node, bytes] : group_bytes) {
    max_parallel_ns =
        std::max(max_parallel_ns,
                 options_.network.RequestCost(
                     bytes.first + kPerRequestHeaderBytes, bytes.second));
    metrics_->storage_requests += 1;
    metrics_->bytes_sent += bytes.first + kPerRequestHeaderBytes;
    metrics_->bytes_received += bytes.second;
  }
  for (const auto& [node, count] : group_ops) {
    metrics_->batch_size.Record(count);
  }
  clock_->Advance(max_parallel_ns);
  return results;
}

Result<uint64_t> StorageClient::Put(TableId table, std::string_view key,
                                    std::string_view value) {
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  auto result = PutWithRetry(table, key, value);
  ChargeRequest(key.size() + value.size() + kPerOpHeaderBytes, 16);
  ChargeReplication(1);
  return result;
}

Result<uint64_t> StorageClient::ConditionalPut(TableId table,
                                               std::string_view key,
                                               uint64_t expected_stamp,
                                               std::string_view value) {
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  auto result = ConditionalPutWithRetry(table, key, expected_stamp, value);
  if (result.status().IsConditionFailed()) metrics_->llsc_failures += 1;
  ChargeRequest(key.size() + value.size() + kPerOpHeaderBytes, 16);
  if (result.ok()) ChargeReplication(1);
  return result;
}

Status StorageClient::Erase(TableId table, std::string_view key) {
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  Status status = EraseWithRetry(table, key);
  ChargeRequest(key.size() + kPerOpHeaderBytes, 16);
  if (status.ok()) ChargeReplication(1);
  return status;
}

Status StorageClient::ConditionalErase(TableId table, std::string_view key,
                                       uint64_t expected_stamp) {
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  Status status = ConditionalEraseWithRetry(table, key, expected_stamp);
  if (status.IsConditionFailed()) metrics_->llsc_failures += 1;
  ChargeRequest(key.size() + kPerOpHeaderBytes, 16);
  if (status.ok()) ChargeReplication(1);
  return status;
}

std::vector<Result<uint64_t>> StorageClient::BatchWrite(
    const std::vector<WriteOp>& ops) {
  if (options_.pipelining) {
    // Async enqueue + one flush; llsc_failures and replication are counted
    // by the resolution step inside Flush().
    std::vector<Future<uint64_t>> futures;
    futures.reserve(ops.size());
    for (const auto& op : ops) {
      if (op.erase) {
        futures.push_back(op.conditional
                              ? AsyncConditionalErase(op.table, op.key,
                                                      op.expected_stamp)
                              : AsyncErase(op.table, op.key));
      } else if (op.conditional) {
        futures.push_back(
            AsyncConditionalPut(op.table, op.key, op.expected_stamp, op.value));
      } else {
        futures.push_back(AsyncPut(op.table, op.key, op.value));
      }
    }
    Flush();
    std::vector<Result<uint64_t>> results;
    results.reserve(futures.size());
    for (auto& future : futures) results.push_back(future.Await());
    return results;
  }

  std::vector<Result<uint64_t>> results;
  results.reserve(ops.size());
  metrics_->storage_ops += ops.size();
  clock_->Advance(options_.cpu.per_op_ns * ops.size());

  auto apply = [&](const WriteOp& op) -> Result<uint64_t> {
    if (op.erase) {
      Status st = op.conditional ? ConditionalEraseWithRetry(op.table, op.key,
                                                             op.expected_stamp)
                                 : EraseWithRetry(op.table, op.key);
      if (!st.ok()) return st;
      return uint64_t{0};
    }
    if (op.conditional) {
      return ConditionalPutWithRetry(op.table, op.key, op.expected_stamp,
                                     op.value);
    }
    return PutWithRetry(op.table, op.key, op.value);
  };

  if (!options_.batching) {
    for (const auto& op : ops) {
      results.push_back(apply(op));
      if (results.back().status().IsConditionFailed()) {
        metrics_->llsc_failures += 1;
      }
      ChargeRequest(op.key.size() + op.value.size() + kPerOpHeaderBytes, 16);
      if (results.back().ok() && !op.erase) ChargeReplication(1);
    }
    return results;
  }

  std::map<uint32_t, std::pair<uint64_t, uint64_t>> group_bytes;
  std::map<uint32_t, uint64_t> group_ops;
  uint64_t replicated_writes = 0;
  for (const auto& op : ops) {
    Result<uint64_t> result = apply(op);
    if (result.status().IsConditionFailed()) metrics_->llsc_failures += 1;
    auto master = cluster_->MasterOf(op.table, op.key);
    uint32_t node = master.ok() ? *master : 0;
    auto& [req, resp] = group_bytes[node];
    req += op.key.size() + op.value.size() + kPerOpHeaderBytes;
    resp += 16;
    group_ops[node] += 1;
    if (result.ok() && !op.erase) ++replicated_writes;
    results.push_back(std::move(result));
  }
  std::vector<std::pair<uint64_t, uint64_t>> requests;
  requests.reserve(group_bytes.size());
  for (const auto& [node, bytes] : group_bytes) requests.push_back(bytes);
  for (const auto& [node, count] : group_ops) {
    metrics_->batch_size.Record(count);
  }
  ChargeParallelRequests(requests);
  ChargeReplication(replicated_writes);
  return results;
}

Result<std::vector<KeyCell>> StorageClient::Scan(TableId table,
                                                 std::string_view start_key,
                                                 std::string_view end_key,
                                                 size_t limit, bool reverse) {
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  auto result = IssueWithRetry(sim::FaultOpClass::kScan, table, [&] {
    return cluster_->Scan(table, start_key, end_key, limit, reverse);
  });
  uint64_t response_bytes = 16;
  if (result.ok()) {
    for (const auto& cell : *result) {
      response_bytes += cell.key.size() + cell.value.size() + 16;
    }
  }
  // One request per partition, issued in parallel; the largest partition's
  // share of the payload dominates. Approximate the parallel cost with the
  // payload divided evenly across partitions.
  auto num_partitions = cluster_->partition_map().NumPartitions(table);
  uint64_t parts = num_partitions.ok() ? *num_partitions : 1;
  std::vector<std::pair<uint64_t, uint64_t>> requests(
      parts, {start_key.size() + end_key.size() + kPerOpHeaderBytes,
              response_bytes / std::max<uint64_t>(parts, 1)});
  ChargeParallelRequests(requests);
  return result;
}

/// Modelled storage-node CPU per examined cell of a pushdown/fragment scan.
/// Charged on the response latency; a dedicated scan thread would hide most
/// of it (§5.2).
constexpr uint64_t kServerScanPerRecordNs = 50;

Result<std::vector<KeyCell>> StorageClient::PushdownScan(
    TableId table, std::string_view start_key, std::string_view end_key,
    size_t limit,
    const std::function<bool(std::string_view, std::string_view, std::string*)>&
        transform,
    uint64_t filter_descriptor_bytes, uint64_t* scanned_out) {
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  uint64_t scanned = 0;
  auto result = IssueWithRetry(sim::FaultOpClass::kScan, table, [&] {
    scanned = 0;  // a retried attempt re-examines the range from scratch
    return cluster_->ScanFiltered(table, start_key, end_key, limit, transform,
                                  &scanned);
  });
  // Only the MATCHING rows' visible payloads travel over the network (the
  // transform strips version history and tombstones server-side); the
  // examined cells cost storage-node CPU.
  uint64_t response_bytes = 16;
  if (result.ok()) {
    for (const auto& cell : *result) {
      response_bytes += cell.key.size() + cell.value.size() + 16;
    }
  }
  auto num_partitions = cluster_->partition_map().NumPartitions(table);
  uint64_t parts = num_partitions.ok() ? *num_partitions : 1;
  std::vector<std::pair<uint64_t, uint64_t>> requests(
      parts,
      {start_key.size() + end_key.size() + filter_descriptor_bytes +
           kPerOpHeaderBytes,
       response_bytes / std::max<uint64_t>(parts, 1)});
  ChargeParallelRequests(requests);
  clock_->Advance(scanned * kServerScanPerRecordNs /
                  std::max<uint64_t>(parts, 1));
  if (scanned_out != nullptr) *scanned_out += scanned;
  return result;
}

Result<FragmentScanOutcome> StorageClient::ExecuteFragmentScan(
    TableId table, uint64_t descriptor_bytes,
    const FragmentSinkFactory& make_sink) {
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  auto num_partitions = cluster_->partition_map().NumPartitions(table);
  if (!num_partitions.ok()) return num_partitions.status();
  const uint32_t parts = *num_partitions;

  auto result = IssueWithRetry(
      sim::FaultOpClass::kScan, table, [&]() -> Result<FragmentScanOutcome> {
        // A retried attempt rebuilds every sink: a replayed fragment must
        // never fold rows into a half-filled partial state.
        FragmentScanOutcome out;
        out.partitions = parts;
        for (uint32_t p = 0; p < parts; ++p) {
          std::unique_ptr<FragmentSink> sink = make_sink(p);
          FragmentScanStats stats;
          TELL_RETURN_NOT_OK(cluster_->FragmentScan(
              table, p, options_.scan_chunk_cells, sink.get(), &stats));
          out.rows_scanned += stats.cells_scanned;
          out.chunk_lock_releases += stats.chunk_lock_releases;
          out.sinks.push_back(std::move(sink));
        }
        return out;
      });
  if (!result.ok()) return result;

  // Each partition answers with its serialized partial state — O(groups)
  // bytes, not O(rows) — and the fan-out flies in parallel, so the charged
  // time is the slowest partition's request, not the sum.
  std::vector<std::pair<uint64_t, uint64_t>> requests;
  requests.reserve(result->sinks.size());
  for (const auto& sink : result->sinks) {
    std::string partial = sink->Finish();
    result->rows_returned += sink->rows_returned();
    result->baseline_bytes += sink->baseline_bytes();
    result->response_bytes += 16 + partial.size();
    requests.push_back(
        {descriptor_bytes + kPerOpHeaderBytes, 16 + partial.size()});
  }
  ChargeParallelRequests(requests);
  clock_->Advance(result->rows_scanned * kServerScanPerRecordNs /
                  std::max<uint64_t>(parts, 1));
  return result;
}

Result<int64_t> StorageClient::AtomicIncrement(TableId table,
                                               std::string_view key,
                                               int64_t delta) {
  metrics_->storage_ops += 1;
  clock_->Advance(options_.cpu.per_op_ns);
  auto result =
      IssueWithRetry(sim::FaultOpClass::kAtomicIncrement, table,
                     [&] { return cluster_->AtomicIncrement(table, key, delta); });
  ChargeRequest(key.size() + 8 + kPerOpHeaderBytes, 16);
  return result;
}

}  // namespace tell::store
