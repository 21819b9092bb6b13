#include "src/cluster/ingest.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/cluster/journal.h"
#include "src/core/object.h"
#include "src/obs/obs.h"

namespace pass::cluster {

namespace {

// RPC framing overhead per batch (op code, shard id, entry count, ...).
constexpr uint64_t kBatchHeaderBytes = 32;
constexpr uint64_t kAckBytes = 16;
// Bound on journaled-but-incomplete transfers in flight; submitting past it
// blocks (backpressure) until the oldest completes.
constexpr size_t kMaxInFlightBatches = 16;

obs::Labels ShardLabel(int shard) {
  return obs::Labels{{"shard", std::to_string(shard)}};
}

}  // namespace

void IngestQueue::Offer(int source_shard, const lasagna::LogEntry& entry) {
  ++stats_.entries_examined;
  int subject_owner = map_->OwnerOf(entry.subject.pnode);
  if (subject_owner >= 0 && subject_owner != source_shard) {
    Enqueue(subject_owner, entry);
  }
  if (entry.record.attr == core::Attr::kInput) {
    if (const auto* ancestor =
            std::get_if<core::ObjectRef>(&entry.record.value)) {
      int ancestor_owner = map_->OwnerOf(ancestor->pnode);
      if (ancestor_owner >= 0 && ancestor_owner != source_shard &&
          ancestor_owner != subject_owner) {
        Enqueue(ancestor_owner, entry);
      }
    }
  }
}

void IngestQueue::Enqueue(int destination, const lasagna::LogEntry& entry) {
  auto& queue = pending_[destination];
  if (queue.empty()) {
    pending_since_[destination] = Now();
  }
  queue.push_back(entry);
  if (queue.size() >= options_.batch_records) {
    Seal(destination);
  }
}

void IngestQueue::Seal(int destination) {
  auto& queue = pending_[destination];
  if (queue.empty()) {
    return;
  }
  SealedBatch batch;
  batch.destination = destination;
  batch.entries = std::move(queue);
  batch.enqueued_at = pending_since_[destination];
  queue.clear();
  ready_.push_back(std::move(batch));
}

void IngestQueue::RecordAck(const SealedBatch& batch) {
  ++stats_.batches_acked;
  env_->obs()
      .metrics()
      .GetHistogram("ingest.ack_ns")
      .Record(Now() - batch.enqueued_at);
}

void IngestQueue::ShipSealed(const SealedBatch& batch) {
  obs::TraceCollector* trace = &env_->obs().trace();
  std::string payload;
  lasagna::EncodeLogEntries(&payload, batch.entries);
  // Bounded in-flight window: past it the sender blocks until the oldest
  // transfer completes — the only place ingest waits on the wire.
  sim::Nanos waited = timeline_.WaitForSlot(kMaxInFlightBatches);
  if (waited > 0) {
    env_->obs()
        .metrics()
        .GetHistogram("ingest.backpressure_ns")
        .Record(waited);
  }
  obs::TraceContext rpc_ctx;
  {
    obs::ScopedSpan rpc_span(trace, "rpc.repl_batch", batch.destination);
    rpc_ctx = trace->CurrentContext();
    net_->RoundTripAsync(&timeline_, kBatchHeaderBytes + payload.size(),
                         kAckBytes);
  }
  ++stats_.batches_sent;
  stats_.bytes_sent += payload.size();
  // The simulation applies the entries eagerly (state now, time deferred):
  // equivalent to a background shipper whose completion nobody observes
  // before the next quiesce barrier.
  waldo::ProvDb* db = shards_[batch.destination];
  obs::ScopedSpan apply_span(trace, rpc_ctx, "shard.apply_batch",
                             batch.destination);
  for (const lasagna::LogEntry& entry : batch.entries) {
    if (db->InsertUnique(entry)) {
      ++stats_.entries_replicated;
    }
  }
}

void IngestQueue::Flush() {
  if (env_->crashed()) {
    return;
  }
  // Seal the partial batches too: Flush drains everything pending.
  for (size_t shard = 0; shard < pending_.size(); ++shard) {
    Seal(static_cast<int>(shard));
  }
  if (ready_.empty()) {
    return;
  }
  obs::TraceCollector* trace = &env_->obs().trace();
  sim::Nanos flush_start = Now();
  obs::ScopedSpan flush_span(trace, "ingest.flush");
  // Foreground half: one coalesced journal write makes every sealed batch
  // durable (WAP for the cluster), and that single disk charge is the whole
  // ack path — the workload never waits on the wire.
  std::vector<uint64_t> batch_ids(ready_.size(), 0);
  if (journal_ != nullptr) {
    obs::ScopedSpan commit_span(trace, "journal.group_commit");
    journal_->BeginGroup();
    for (size_t i = 0; i < ready_.size(); ++i) {
      batch_ids[i] = journal_->AppendReplBatch(ready_[i].destination,
                                               ready_[i].entries);
    }
    size_t frames = journal_->CommitGroup();
    ++stats_.group_commits;
    stats_.group_frames += frames;
  }
  if (env_->MaybeCrash()) {
    return;  // journaled but never shipped: recovery redelivers every batch
  }
  for (const SealedBatch& batch : ready_) {
    RecordAck(batch);
  }
  // Background half: hand each durable batch to the async shipper. Crash
  // points bracket every non-durable step; the batches stay in ready_ until
  // the whole drain survived, so DropPending discards them and recovery
  // redelivers from the journal instead.
  std::vector<uint64_t> shipped_ids;
  shipped_ids.reserve(ready_.size());
  for (size_t i = 0; i < ready_.size(); ++i) {
    if (env_->MaybeCrash()) {
      return;  // durable but unsent (or partially sent): redelivered
    }
    ShipSealed(ready_[i]);
    shipped_ids.push_back(batch_ids[i]);
  }
  if (env_->MaybeCrash()) {
    return;  // every batch in flight, none acknowledged: redelivered
  }
  // The REPL_APPLIED marks are one more coalesced write. Logically they
  // trail the remote acks; journaling them eagerly is safe because a crash
  // before the acks would also lose these marks (same journal, same image)
  // and merely cause an idempotent redelivery.
  if (journal_ != nullptr) {
    obs::ScopedSpan applied_span(trace, "journal.group_commit");
    journal_->BeginGroup();
    for (uint64_t id : shipped_ids) {
      journal_->AppendReplApplied(id);
    }
    size_t frames = journal_->CommitGroup();
    ++stats_.group_commits;
    stats_.group_frames += frames;
  }
  ready_.clear();
  obs::MetricRegistry& metrics = env_->obs().metrics();
  metrics.GetCounter("ingest.flushes").Add();
  metrics.GetHistogram("ingest.flush_ns").Record(Now() - flush_start);
}

sim::Nanos IngestQueue::Quiesce() {
  if (env_->crashed()) {
    return 0;
  }
  sim::Nanos charged = timeline_.Drain();
  obs::MetricRegistry& metrics = env_->obs().metrics();
  metrics.GetCounter("ingest.quiesces").Add();
  if (charged > 0) {
    metrics.GetHistogram("ingest.quiesce_wait_ns").Record(charged);
  }
  return charged;
}

void IngestQueue::DropPending() {
  for (auto& queue : pending_) {
    queue.clear();
  }
  ready_.clear();
  timeline_.Reset();
}

uint64_t IngestQueue::Redeliver(
    int destination, const std::vector<lasagna::LogEntry>& entries) {
  obs::TraceCollector* trace = &env_->obs().trace();
  obs::ScopedSpan redeliver_span(trace, "ingest.redeliver", destination);
  std::string payload;
  lasagna::EncodeLogEntries(&payload, entries);
  obs::TraceContext rpc_ctx;
  {
    obs::ScopedSpan rpc_span(trace, "rpc.repl_batch", destination);
    rpc_ctx = trace->CurrentContext();
    net_->RoundTrip(kBatchHeaderBytes + payload.size(), kAckBytes);
  }
  uint64_t inserted = 0;
  waldo::ProvDb* db = shards_[destination];
  obs::ScopedSpan apply_span(trace, rpc_ctx, "shard.apply_batch",
                             destination);
  for (const lasagna::LogEntry& entry : entries) {
    if (db->InsertUnique(entry)) {
      ++inserted;
    }
  }
  return inserted;
}

IngestQueue::ShipReport IngestQueue::ShipTo(
    int destination, const std::vector<lasagna::LogEntry>& entries) {
  ShipReport report;
  obs::TraceCollector* trace = &env_->obs().trace();
  waldo::ProvDb* db = shards_[destination];
  for (size_t at = 0; at < entries.size(); at += options_.batch_records) {
    if (env_->MaybeCrash()) {
      break;  // mid-copy crash: recovery re-ships the whole range
    }
    sim::Nanos chunk_start = Now();
    obs::ScopedSpan chunk_span(trace, "migrate.ship_chunk", destination);
    size_t batch_end = std::min(at + options_.batch_records, entries.size());
    std::vector<lasagna::LogEntry> chunk(entries.begin() + at,
                                         entries.begin() + batch_end);
    std::string payload;
    lasagna::EncodeLogEntries(&payload, chunk);
    obs::TraceContext rpc_ctx;
    {
      obs::ScopedSpan rpc_span(trace, "rpc.ship", destination);
      rpc_ctx = trace->CurrentContext();
      net_->RoundTrip(kBatchHeaderBytes + payload.size(), kAckBytes);
    }
    ++report.batches;
    report.bytes += payload.size();
    {
      obs::ScopedSpan apply_span(trace, rpc_ctx, "shard.apply_chunk",
                                 destination);
      for (const lasagna::LogEntry& entry : chunk) {
        // InsertUnique adds only the rows (or edge halves) still missing, so
        // re-sending previously replicated entries cannot duplicate them.
        if (db->InsertUnique(entry)) {
          ++report.entries_shipped;
        } else {
          ++report.entries_skipped;
        }
      }
    }
    chunk_span.End();
    env_->obs()
        .metrics()
        .GetHistogram("migrate.ship_chunk_ns", ShardLabel(destination))
        .Record(Now() - chunk_start);
  }
  stats_.migrate_batches += report.batches;
  stats_.migrate_bytes += report.bytes;
  stats_.migrate_entries += report.entries_shipped + report.entries_skipped;
  return report;
}

}  // namespace pass::cluster
