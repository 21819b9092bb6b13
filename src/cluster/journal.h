#ifndef SRC_CLUSTER_JOURNAL_H_
#define SRC_CLUSTER_JOURNAL_H_

// ClusterJournal: the cluster's write-ahead journal — the single durability
// path for all cross-shard mutation.
//
// The Lasagna log guarantees provenance frames are durable before the data
// they describe (WAP, §5.6). The cluster journal extends that discipline to
// operations that span machines: every shard keeps one journal on its lower
// file system (next to its provenance logs, in the same disk zone), and
//
//   * the ingest queue appends a REPL_BATCH record — the encoded batch plus
//     its destination — before the network sees a byte, and a REPL_APPLIED
//     record only after the remote apply, so a coordinator crash at any
//     point can be replayed (the apply path is ProvDb::InsertUnique, which
//     makes redelivery idempotent). In the pipelined path the REPL_BATCH
//     records of one sync drain are group-committed: coalesced into a
//     single disk write, which is the durable point the workload is acked
//     at (see BeginGroup/CommitGroup below);
//
//   * a range migration is a journaled three-phase protocol:
//     MIGRATE_BEGIN -> EPOCH_BUMP (the ShardMap reassignment, the durable
//     point of no return) -> copy -> MIGRATE_COPIED -> delete ->
//     MIGRATE_COMMIT. Recovery rolls a migration forward iff its epoch bump
//     is durable, and discards it otherwise — either way each row ends on
//     exactly one shard and the ShardMap epoch is consistent;
//
//   * EPOCH_BUMP records are never garbage-collected: replaying them in
//     epoch order rebuilds the ShardMap of a restarted coordinator.
//
// Scanning and torn-tail classification reuse the Lasagna recovery
// machinery (lasagna::ScanJournal); this layer owns payload semantics.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/object.h"
#include "src/fs/memfs.h"
#include "src/lasagna/log_format.h"
#include "src/util/result.h"

namespace pass::cluster {

// One journaled replication batch.
struct JournalBatch {
  uint64_t id = 0;
  int destination = -1;
  std::vector<lasagna::LogEntry> entries;
  bool applied = false;  // its REPL_APPLIED record is durable
};

// One journaled migration, classified by which phase records are durable.
struct JournalMigration {
  uint64_t id = 0;
  core::PnodeRange range{};
  int from = -1;
  int to = -1;
  uint64_t epoch = 0;  // epoch its EPOCH_BUMP assigned (0 = none durable)
  bool epoch_bumped = false;
  bool copied = false;
  bool committed = false;
};

// One ShardMap reassignment (kept forever: the map rebuild history). Since
// the audit plane landed, a bump is also a *custody record*: its payload
// carries the journal chain head at append time and the content digest of
// the range being handed over, so responsibility for a migrated range
// crosses shards together with a commitment to its rows.
struct JournalEpochBump {
  uint64_t epoch = 0;
  uint64_t migration_id = 0;
  core::PnodeRange range{};
  int to_shard = -1;
  // Custody digests (absent on pre-audit images; see has_digests).
  lasagna::ChainHash chain_head{};   // journal chain head when appended
  Md5Digest range_digest{};          // content hash of the handed-over range
  bool has_digests = false;
  // The payload exactly as journaled. Checkpoint re-emits this verbatim:
  // re-encoding from the parsed fields would silently strip digest bytes a
  // newer writer appended, destroying the custody evidence.
  std::string raw_payload;
};

// Classified contents of one journal image.
struct JournalState {
  uint64_t records_scanned = 0;
  bool truncated = false;  // torn tail detected via CRC, valid prefix kept
  size_t valid_bytes = 0;  // where the valid frame prefix ends
  uint64_t corrupt_frames = 0;
  lasagna::ChainHash chain_head{};  // chain head of the valid prefix
  std::vector<JournalBatch> batches;
  std::vector<JournalMigration> migrations;
  std::vector<JournalEpochBump> epoch_bumps;
  uint64_t max_migration_id = 0;
};

class ClusterJournal {
 public:
  // The journal lives at `path` on `lower` (under the provenance-log prefix
  // so appends land in the same disk zone as the Lasagna log). An existing
  // image — a restart — is scanned to continue the batch id sequence.
  explicit ClusterJournal(fs::MemFs* lower,
                          std::string path = "/.pass/cluster.journal");

  // ---- Append side ----------------------------------------------------------
  // Every append reaches the lower file system (a charged write) before it
  // returns: the WAP guarantee, extended to cluster operations.

  // ---- Group commit ----
  // Appends between BeginGroup() and CommitGroup() coalesce in memory and
  // reach the disk as ONE write when the group commits, so the per-append
  // disk charge (journal-zone seek + access overhead) is paid once per
  // group instead of once per record. Until CommitGroup() returns, none of
  // the group's records are durable — callers must not ack work that
  // depends on them. AbortGroup() drops a buffered, uncommitted group (the
  // crash-recovery path: the buffer died with the process).
  void BeginGroup();
  // Returns the number of frames the coalesced write made durable.
  size_t CommitGroup();
  void AbortGroup();
  bool InGroup() const { return group_open_; }

  // Journal a replication batch bound for `destination`; returns its id.
  uint64_t AppendReplBatch(int destination,
                           const std::vector<lasagna::LogEntry>& entries);
  void AppendReplApplied(uint64_t batch_id);
  void AppendMigrateBegin(uint64_t migration_id, core::PnodeRange range,
                          int from, int to);
  // `range_digest` is the source shard's content hash of the handed-over
  // range (ProvDb::ContentHashOfRange); it and the journal chain head at
  // append time are sealed into the bump payload as the custody record.
  void AppendEpochBump(uint64_t epoch, uint64_t migration_id,
                       core::PnodeRange range, int to_shard,
                       const Md5Digest& range_digest = Md5Digest{});
  void AppendMigrateCopied(uint64_t migration_id);
  // The commit record carries the chain head at append time, pinning where
  // in this journal's history the migration's source rows were deleted.
  void AppendMigrateCommit(uint64_t migration_id);

  // ---- Hash chain -----------------------------------------------------------
  // Running hash chain over the durable image (see lasagna/log_format.h).
  // Group-buffered frames advance a staged chain that only becomes the head
  // when the group's coalesced write commits, so the head always describes
  // bytes that are actually on disk.
  const lasagna::ChainHash& chain_head() const { return chain_head_; }
  uint64_t chain_frames() const { return chain_frames_; }

  // ---- Recovery side --------------------------------------------------------

  // Scan and classify the durable image (tolerant of a torn tail).
  Result<JournalState> Scan() const;

  // Rewrite the journal keeping only what future recoveries need: every
  // EPOCH_BUMP, plus the records of batches not yet applied and migrations
  // not yet committed. Bounds journal growth after a successful recovery.
  Status Checkpoint();

  const std::string& path() const { return path_; }
  uint64_t records_appended() const { return records_appended_; }
  uint64_t bytes_appended() const { return bytes_appended_; }

 private:
  void Append(const lasagna::JournalRecord& record);
  void WriteFrames(std::string_view frames, uint64_t count);
  void Rewrite(const std::vector<lasagna::JournalRecord>& records);

  fs::MemFs* lower_;
  std::string path_;
  uint64_t size_ = 0;  // durable image size (append offset)
  uint64_t next_batch_id_ = 1;
  uint64_t records_appended_ = 0;
  uint64_t bytes_appended_ = 0;
  bool group_open_ = false;
  std::string group_buf_;  // volatile: frames awaiting the coalesced write
  uint64_t group_pending_frames_ = 0;
  lasagna::ChainHash chain_head_{};   // chain over the durable image
  uint64_t chain_frames_ = 0;
  lasagna::ChainHash staged_chain_{};  // chain including buffered group frames
  uint64_t staged_frames_ = 0;
};

}  // namespace pass::cluster

#endif  // SRC_CLUSTER_JOURNAL_H_
