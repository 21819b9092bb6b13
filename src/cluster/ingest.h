#ifndef SRC_CLUSTER_INGEST_H_
#define SRC_CLUSTER_INGEST_H_

// Cross-shard ingest/replication queue.
//
// Each shard recovers its own Lasagna log into its local ProvDb, so purely
// local provenance never touches the network. Two kinds of entries must
// additionally reach a *remote* shard before federated queries are complete:
//
//   * a record whose subject pnode is owned by another shard (disclosed
//     provenance about a remote object), shipped to the owner so attribute
//     queries routed there see it;
//
//   * an INPUT edge whose ancestor pnode is owned by another shard, shipped
//     to the ancestor's owner so the reverse (descendant) index there lists
//     the foreign subject — exactly the row ProvDb::Insert would have added
//     had the whole cluster shared one database.
//
// Ownership is resolved through the ShardMap routing layer (never the raw
// shard bits), so entries about migrated pnode ranges flow to the current
// owner. Entries are batched per destination shard; each shipped batch is
// one sim::Network round trip. batch_records = 1 degrades to one RTT per
// replicated entry, which is what bench/fig3_cluster uses as the unbatched
// baseline.
//
// The queue applies the Lasagna discipline at the replication boundary: the
// hot path never waits on the wire. Flush() splits into a foreground half
// that seals every pending batch and group-commits their REPL_BATCH records
// in ONE coalesced journal write — the durable point at which the workload
// is acked — and a background half that ships the sealed batches over the
// async timeline, where in-flight transfers overlap later foreground
// execution and cost elapsed time only at a Quiesce() barrier (or when the
// bounded in-flight window forces a backpressure wait). A caller that must
// see every remote ack before it proceeds follows Flush() with Quiesce().
//
// A batch is durable as REPL_BATCH in the active ClusterJournal before the
// network is charged and is marked REPL_APPLIED only after the destination
// applied it. Application goes through ProvDb::InsertUnique, so a crash
// anywhere in between — group-committed-but-unsent, sent-but-unacked — is
// repaired by redelivering the journaled batch. Crash points
// (sim::Env::MaybeCrash) bracket the non-durable steps; once the
// environment is crashed the queue does nothing, like the dead process it
// models.
//
// The same batch path ships migration traffic (ShipTo) when the
// coordinator moves a pnode range between shards. ShipTo stays synchronous
// (migration is a quiesced foreground protocol) and needs no batch
// journaling of its own — the journaled MIGRATE_BEGIN/COPIED/COMMIT phases
// protect it and recovery re-runs it from the source rows — but its wire
// traffic is accounted in IngestStats (migrate_*) so benches can total
// every byte the cluster put on the wire from one struct.

#include <cstdint>
#include <deque>
#include <vector>

#include "src/cluster/shard_map.h"
#include "src/lasagna/log_format.h"
#include "src/sim/async.h"
#include "src/sim/env.h"
#include "src/sim/net.h"
#include "src/waldo/provdb.h"

namespace pass::cluster {

class ClusterJournal;

struct IngestStats {
  uint64_t entries_examined = 0;    // everything offered to the queue
  uint64_t entries_replicated = 0;  // copies delivered to remote shards
  uint64_t batches_sent = 0;        // network round trips charged
  uint64_t bytes_sent = 0;          // encoded batch payload bytes
  // Group-committed journal appends (the pipelined foreground ack path).
  uint64_t group_commits = 0;  // coalesced REPL_BATCH journal writes
  uint64_t group_frames = 0;   // REPL_BATCH frames across those writes
  uint64_t batches_acked = 0;  // batches acked back to the workload
  // Migration traffic (ShipTo).
  uint64_t migrate_batches = 0;  // ShipTo round trips charged
  uint64_t migrate_bytes = 0;    // ShipTo payload bytes on the wire
  uint64_t migrate_entries = 0;  // entries ShipTo put on the wire

  // Every payload byte the queue put on the wire, replication + migration.
  uint64_t wire_bytes() const { return bytes_sent + migrate_bytes; }
};

class IngestQueue {
 public:
  struct Options {
    // Records per cross-shard replication batch; 1 = one RTT per record.
    size_t batch_records = 64;
  };

  // `shards[i]` is shard i's local database; `net` models the cluster
  // fabric; `map` (borrowed, live) resolves pnode ownership; `env`
  // (borrowed) supplies crash points, the clock, and the metric registry.
  IngestQueue(sim::Env* env, sim::Network* net, const ShardMap* map,
              std::vector<waldo::ProvDb*> shards, Options options)
      : env_(env),
        net_(net),
        map_(map),
        shards_(std::move(shards)),
        options_(options),
        timeline_(&env->clock()),
        pending_(shards_.size()),
        pending_since_(shards_.size(), 0) {
    if (options_.batch_records == 0) {
      options_.batch_records = 1;
    }
  }

  // Journal that subsequent flushed batches append their REPL_BATCH records
  // to — the initiating shard's journal. Null disables journaling.
  void SetJournal(ClusterJournal* journal) { journal_ = journal; }

  // Examine one entry recovered on `source_shard` and enqueue copies for
  // every remote shard that must index it. Full batches seal immediately.
  void Offer(int source_shard, const lasagna::LogEntry& entry);

  // Drain everything pending: group-commit every sealed batch's REPL_BATCH
  // record in one journal write, ack, then hand the batches to the
  // background shipper.
  void Flush();

  // Quiesce the background channel: wait (charging only the remainder the
  // foreground has not covered) until every in-flight transfer completed.
  // The barrier queries, migration, and recovery take before reading
  // remote state. Returns the nanos charged.
  sim::Nanos Quiesce();

  // Forget the volatile pending queues, sealed-but-unshipped batches, and
  // in-flight transfers: they died with the crashed coordinator. Journaled
  // batches survive and are redelivered instead.
  void DropPending();

  // Re-deliver one journaled batch during recovery: one round trip, then an
  // idempotent apply. Returns the number of rows newly inserted.
  uint64_t Redeliver(int destination,
                     const std::vector<lasagna::LogEntry>& entries);

  // Result of one ShipTo call (migration traffic).
  struct ShipReport {
    uint64_t entries_shipped = 0;  // inserted at the destination
    uint64_t entries_skipped = 0;  // already present there (replicated before)
    uint64_t batches = 0;          // network round trips charged
    uint64_t bytes = 0;            // encoded payload bytes
  };

  // Ship `entries` to `destination`'s database in batch-sized chunks, one
  // round trip per chunk. The sender cannot know the receiver's state, so
  // every entry crosses the wire; the destination skips rows it already
  // holds (earlier replication makes migration re-send some). Synchronous:
  // bypasses the per-destination pending queues; accounted under the
  // IngestStats migrate_* counters.
  ShipReport ShipTo(int destination,
                    const std::vector<lasagna::LogEntry>& entries);

  const IngestStats& stats() const { return stats_; }
  // The background replication channel (overlap accounting for benches).
  const sim::AsyncTimeline& timeline() const { return timeline_; }
  // Uniform with Disk/Net/Lasagna/FederatedSource: zero the counters so
  // benches can measure phases instead of cumulative totals.
  void ResetStats() {
    stats_ = IngestStats();
    timeline_.ResetStats();
  }

 private:
  // One batch sealed for shipment: its entries plus the enqueue timestamp
  // of its first record (ack-latency accounting).
  struct SealedBatch {
    int destination = -1;
    std::vector<lasagna::LogEntry> entries;
    sim::Nanos enqueued_at = 0;
  };

  sim::Nanos Now() const { return env_->clock().now(); }
  void Enqueue(int destination, const lasagna::LogEntry& entry);
  void Seal(int destination);                 // pending -> ready_
  void ShipSealed(const SealedBatch& batch);  // async wire + remote apply
  void RecordAck(const SealedBatch& batch);

  sim::Env* env_;
  sim::Network* net_;
  const ShardMap* map_;
  std::vector<waldo::ProvDb*> shards_;
  Options options_;
  ClusterJournal* journal_ = nullptr;
  sim::AsyncTimeline timeline_;  // the serialized replication stream
  std::vector<std::vector<lasagna::LogEntry>> pending_;  // per destination
  std::vector<sim::Nanos> pending_since_;  // first-enqueue time, per dest
  std::deque<SealedBatch> ready_;  // sealed, awaiting group commit + ship
  IngestStats stats_;
};

}  // namespace pass::cluster

#endif  // SRC_CLUSTER_INGEST_H_
