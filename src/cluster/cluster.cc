#include "src/cluster/cluster.h"

#include <algorithm>
#include <limits>

#include "src/lasagna/recovery.h"
#include "src/pql/eval.h"
#include "src/pql/provdb_source.h"
#include "src/util/encode.h"
#include "src/util/md5.h"
#include "src/obs/obs.h"
#include "src/util/logging.h"

namespace pass::cluster {

ClusterCoordinator::ClusterCoordinator(ClusterOptions options)
    : options_(options),
      env_(options.seed),
      net_(&env_.clock(), options.net_params),
      shard_map_(options.shards) {
  PASS_CHECK(options.shards >= 1);
  machines_.reserve(options.shards);
  worker_pids_.reserve(options.shards);
  std::vector<waldo::ProvDb*> dbs;
  for (int shard = 0; shard < options.shards; ++shard) {
    workloads::MachineOptions machine_options;
    machine_options.seed = options.seed;
    machine_options.with_pass = true;
    machine_options.shared_env = &env_;
    machine_options.shard = static_cast<uint16_t>(shard);
    machine_options.cycle_algorithm = options.cycle_algorithm;
    machine_options.lasagna_options = options.lasagna_options;
    machines_.push_back(
        std::make_unique<workloads::Machine>(machine_options));
    worker_pids_.push_back(machines_.back()->Spawn("clusterd"));
    dbs.push_back(machines_.back()->db());
    journals_.push_back(
        std::make_unique<ClusterJournal>(&machines_.back()->basefs()));
  }
  IngestQueue::Options queue_options;
  queue_options.batch_records = options.ingest_batch_records;
  queue_ = std::make_unique<IngestQueue>(&env_, &net_, &shard_map_,
                                         std::move(dbs), queue_options);
}

workloads::WorkloadReport ClusterCoordinator::RunWorkload(
    int shard, const std::string& name) {
  return workloads::RunWorkload(name, machines_[shard].get());
}

Result<core::ObjectRef> ClusterCoordinator::WriteWithLineage(
    int shard, const std::string& path, std::string_view data,
    const std::vector<core::ObjectRef>& sources) {
  workloads::Machine& m = *machines_[shard];
  os::Pid pid = worker_pids_[shard];
  PASS_RETURN_IF_ERROR(m.kernel().WriteFile(pid, path, data));
  PASS_ASSIGN_OR_RETURN(core::ObjectRef ref, m.pass()->RefOfPath(path));
  if (!sources.empty()) {
    std::vector<core::Record> records;
    records.reserve(sources.size());
    for (const core::ObjectRef& source : sources) {
      records.push_back(core::Record::Input(source));
    }
    PASS_RETURN_IF_ERROR(m.pass()->DiscloseRecords(pid, ref, records));
  }
  return m.pass()->RefOfPath(path);
}

Result<core::ObjectRef> ClusterCoordinator::RefOfPath(int shard,
                                                      const std::string& path) {
  return machines_[shard]->pass()->RefOfPath(path);
}

Status ClusterCoordinator::Sync() {
  obs::TraceCollector* trace = &env_.obs().trace();
  sim::Nanos sync_start = env_.clock().now();
  obs::ScopedSpan sync_span(trace, "cluster.sync");
  for (int shard = 0; shard < shard_count(); ++shard) {
    if (env_.MaybeCrash()) {
      return Unavailable("sync: coordinator crashed");
    }
    obs::ScopedSpan shard_span(trace, "sync.shard", shard);
    workloads::Machine& m = *machines_[shard];
    lasagna::LasagnaFs* volume = m.volume();
    lasagna::RecoveryReport report;
    {
      obs::ScopedSpan recover_span(trace, "sync.recover_log", shard);
      PASS_RETURN_IF_ERROR(volume->ForceRotate());
      // Recover the closed logs exactly as a restarted Waldo would: complete
      // transactions survive, orphans and torn tails are discarded.
      PASS_ASSIGN_OR_RETURN(
          report,
          lasagna::RunRecovery(&m.basefs(), options_.lasagna_options.log_dir));
    }
    // Replication batches born from this shard's logs journal here.
    queue_->SetJournal(journals_[shard].get());
    {
      obs::ScopedSpan apply_span(trace, "sync.apply_local", shard);
      for (const lasagna::LogEntry& entry : report.recovered_entries) {
        // InsertUnique, not Insert: after a crash the same log is recovered
        // again, and local replay must not duplicate rows.
        m.db()->InsertUnique(entry);  // local ingest: no network
        queue_->Offer(shard, entry);
        ++entries_recovered_;
        if (env_.crashed()) {
          return Unavailable("sync: coordinator crashed");
        }
      }
    }
    // Drain this shard's batches before its logs go away: only once every
    // cross-shard entry is either applied or durable in the journal may the
    // log that produced it be removed.
    queue_->Flush();
    if (env_.MaybeCrash()) {
      return Unavailable("sync: coordinator crashed");
    }
    obs::ScopedSpan remove_span(trace, "sync.remove_logs", shard);
    for (const std::string& path : volume->ClosedLogPaths()) {
      PASS_RETURN_IF_ERROR(volume->RemoveLog(path));
    }
  }
  sync_span.End();
  env_.obs().metrics().GetHistogram("cluster.sync_ns")
      .Record(env_.clock().now() - sync_start);
  return Status::Ok();
}

sim::Nanos ClusterCoordinator::Quiesce() {
  obs::TraceCollector* trace = &env_.obs().trace();
  obs::ScopedSpan quiesce_span(trace, "cluster.quiesce");
  return queue_->Quiesce();
}

void ClusterCoordinator::PinEpoch(uint64_t epoch) {
  pinned_epochs_.insert(epoch);
}

void ClusterCoordinator::UnpinEpoch(uint64_t epoch) {
  auto it = pinned_epochs_.find(epoch);
  if (it != pinned_epochs_.end()) {
    pinned_epochs_.erase(it);  // one pin, not every session at this epoch
  }
  RetireEligible();
}

uint64_t ClusterCoordinator::min_pinned_epoch() const {
  return pinned_epochs_.empty() ? UINT64_MAX : *pinned_epochs_.begin();
}

uint64_t ClusterCoordinator::RetireEligible() {
  uint64_t rows = 0;
  uint64_t min_pin = min_pinned_epoch();
  for (auto it = deferred_.begin(); it != deferred_.end();) {
    if (min_pin < it->epoch) {
      ++it;  // a session pinned before this bump still reads the source
      continue;
    }
    obs::ScopedSpan retire_span(&env_.obs().trace(), "migrate.retire",
                                it->from);
    uint64_t deleted =
        machines_[it->from]->db()->DeleteRange(it->range.begin, it->range.end);
    journals_[it->from]->AppendMigrateCommit(it->migration_id);
    migration_stats_.rows_deleted += deleted;
    rows += deleted;
    env_.obs().metrics().GetCounter("portal.retirements_completed").Add();
    it = deferred_.erase(it);
  }
  return rows;
}

Result<ClusterRecoveryReport> ClusterCoordinator::Recover() {
  ClusterRecoveryReport report;
  obs::TraceCollector* trace = &env_.obs().trace();
  sim::Nanos recover_start = env_.clock().now();
  obs::ScopedSpan recover_span(trace, "cluster.recover");
  double start_seconds = env_.clock().seconds();
  env_.ClearCrash();
  // The pending queues, in-flight transfers, and any buffered (uncommitted)
  // journal group died with the coordinator; durably committed REPL_BATCH
  // records are the truth.
  queue_->DropPending();
  queue_->SetJournal(nullptr);
  for (auto& journal : journals_) {
    journal->AbortGroup();
  }
  // Pinned sessions and their deferred retirements died with the
  // coordinator; the journal roll-forward below finishes any deferred
  // delete (its migration is bumped-but-uncommitted on disk).
  pinned_epochs_.clear();
  deferred_.clear();

  std::vector<JournalState> states;
  states.reserve(machines_.size());
  for (size_t shard = 0; shard < machines_.size(); ++shard) {
    obs::ScopedSpan scan_span(trace, "recover.scan",
                              static_cast<int>(shard));
    PASS_ASSIGN_OR_RETURN(JournalState state, journals_[shard]->Scan());
    ++report.journals_scanned;
    report.journal_records_scanned += state.records_scanned;
    if (state.truncated) {
      ++report.truncated_journals;
    }
    next_migration_id_ =
        std::max(next_migration_id_, state.max_migration_id + 1);
    states.push_back(std::move(state));
  }

  // Rebuild the ShardMap from the journaled epoch history, exactly as a
  // restarted coordinator with empty memory would.
  std::vector<JournalEpochBump> bumps;
  for (const JournalState& state : states) {
    bumps.insert(bumps.end(), state.epoch_bumps.begin(),
                 state.epoch_bumps.end());
  }
  std::sort(bumps.begin(), bumps.end(),
            [](const JournalEpochBump& a, const JournalEpochBump& b) {
              return a.epoch < b.epoch;
            });
  shard_map_.Reset();
  for (const JournalEpochBump& bump : bumps) {
    PASS_RETURN_IF_ERROR(shard_map_.Assign(bump.range, bump.to_shard));
    if (shard_map_.epoch() != bump.epoch) {
      return Internal("recover: epoch replay diverged from the journal");
    }
    ++report.epoch_bumps_replayed;
  }

  // Roll interrupted migrations forward. A migration whose EPOCH_BUMP is
  // durable already routes queries to the destination, so the copy and
  // delete must finish; one whose bump never became durable changed
  // nothing and is discarded (like an orphaned transaction).
  obs::ScopedSpan rollforward_span(trace, "recover.rollforward");
  for (size_t shard = 0; shard < states.size(); ++shard) {
    for (const JournalMigration& migration : states[shard].migrations) {
      if (migration.committed) {
        continue;
      }
      if (!migration.epoch_bumped) {
        // Routing never changed and nothing moved: discard, and close the
        // record (a COMMIT with no bump) so the checkpoint drops it and
        // later recoveries do not re-report it.
        journals_[shard]->AppendMigrateCommit(migration.id);
        ++report.migrations_aborted;
        continue;
      }
      ClusterJournal* journal = journals_[shard].get();
      if (!migration.copied) {
        CopyRange(migration.from, migration.to, migration.range);
        journal->AppendMigrateCopied(migration.id);
      }
      machines_[migration.from]->db()->DeleteRange(migration.range.begin,
                                                   migration.range.end);
      journal->AppendMigrateCommit(migration.id);
      ++report.migrations_rolled_forward;
    }
  }

  rollforward_span.End();

  // Redeliver replication batches that were journaled but never
  // acknowledged. The destination's InsertUnique makes this idempotent
  // whether the crash hit before the send or after the apply.
  obs::ScopedSpan redeliver_span(trace, "recover.redeliver");
  for (size_t shard = 0; shard < states.size(); ++shard) {
    for (const JournalBatch& batch : states[shard].batches) {
      if (batch.applied) {
        ++report.batches_acked;
        continue;
      }
      report.entries_reapplied +=
          queue_->Redeliver(batch.destination, batch.entries);
      journals_[shard]->AppendReplApplied(batch.id);
      ++report.batches_redelivered;
    }
  }
  redeliver_span.End();

  // Logs that were mid-consumption when the coordinator died are still on
  // disk; a normal (journaled) sync drains them.
  uint64_t recovered_before = entries_recovered_;
  PASS_RETURN_IF_ERROR(Sync());
  report.log_entries_resynced = entries_recovered_ - recovered_before;
  // Recovery hands back a quiesced cluster: the resync's background
  // transfers are waited out inside the recovery window.
  queue_->Quiesce();

  {
    obs::ScopedSpan checkpoint_span(trace, "recover.checkpoint");
    for (auto& journal : journals_) {
      PASS_RETURN_IF_ERROR(journal->Checkpoint());
    }
  }
  report.shard_map_epoch = shard_map_.epoch();
  report.recovery_seconds = env_.clock().seconds() - start_seconds;
  recover_span.End();
  env_.obs().metrics().GetHistogram("cluster.recover_ns")
      .Record(env_.clock().now() - recover_start);
  return report;
}

Result<MigrationReport> ClusterCoordinator::MigrateRange(core::PnodeRange range,
                                                         int to_shard) {
  int from = shard_map_.OwnerOfRange(range);
  if (from < 0) {
    return InvalidArgument("migrate: range is not uniformly owned");
  }
  if (to_shard < 0 || to_shard >= shard_count()) {
    return InvalidArgument("migrate: destination is not a cluster member");
  }
  MigrationReport report;
  report.from = from;
  report.to = to_shard;
  if (from == to_shard) {
    return report;  // nothing to move
  }
  // Validate everything Assign will check *before* the first journal write,
  // so a rejected call leaves no stray MIGRATE_BEGIN behind.
  if (core::PnodeShard(range.begin) != core::PnodeShard(range.end - 1)) {
    return InvalidArgument("migrate: range must lie in one home space");
  }
  obs::TraceCollector* trace = &env_.obs().trace();
  sim::Nanos migrate_start = env_.clock().now();
  obs::ScopedSpan migrate_span(trace, "cluster.migrate");
  // Pending replication batches were routed under the current map; deliver
  // them before ownership changes.
  queue_->SetJournal(journals_[from].get());
  {
    obs::ScopedSpan flush_span(trace, "migrate.flush_pending", from);
    queue_->Flush();
    // Migration reads and rewrites replica state; every in-flight transfer
    // must have landed (in time as well as in effect) first.
    queue_->Quiesce();
  }
  if (env_.MaybeCrash()) {
    return Unavailable("migrate: coordinator crashed");
  }

  // A deferred retirement pending on the destination shard would later run
  // its DeleteRange over rows this migration is about to ship there —
  // destroying data the destination legitimately owns again. The re-ship
  // below makes the destination's copy of the overlap live, so the deferral
  // is *cancelled*: its MIGRATE_COMMIT is journaled without the delete
  // (durably, before this migration's BEGIN, so Recover() can never roll
  // the stale delete forward either). Deferred rows outside this
  // migration's range linger on the destination as unowned replicas —
  // harmless, like any entries_skipped copy: queries route by ShardMap and
  // MergeInto filters by owner.
  for (auto it = deferred_.begin(); it != deferred_.end();) {
    bool overlaps = it->from == to_shard && it->range.begin < range.end &&
                    range.begin < it->range.end;
    if (!overlaps) {
      ++it;
      continue;
    }
    obs::ScopedSpan cancel_span(trace, "migrate.cancel_retirement", it->from);
    journals_[it->from]->AppendMigrateCommit(it->migration_id);
    env_.obs().metrics().GetCounter("portal.retirements_cancelled").Add();
    it = deferred_.erase(it);
  }
  if (env_.MaybeCrash()) {
    return Unavailable("migrate: coordinator crashed");
  }

  // Phase 1 — intent. A crash after only this record is an aborted
  // migration: routing never changed, every row is still on the source.
  uint64_t migration_id = next_migration_id_++;
  ClusterJournal* journal = journals_[from].get();
  {
    obs::ScopedSpan begin_span(trace, "migrate.journal_begin", from);
    journal->AppendMigrateBegin(migration_id, range, from, to_shard);
  }
  if (env_.MaybeCrash()) {
    return Unavailable("migrate: coordinator crashed");
  }

  // Phase 2 — the point of no return. Once the epoch bump is durable the
  // map routes the range to the destination, and recovery must (and will)
  // roll the copy and delete forward. The bump doubles as the custody
  // record: it seals the source's content digest of the range, so the
  // destination shard inherits a commitment to the rows it receives.
  waldo::ProvDb* source = machines_[from]->db();
  obs::ScopedSpan bump_span(trace, "migrate.epoch_bump", from);
  PASS_RETURN_IF_ERROR(shard_map_.Assign(range, to_shard));
  if (env_.MaybeCrash()) {
    return Unavailable("migrate: coordinator crashed");
  }
  journal->AppendEpochBump(shard_map_.epoch(), migration_id, range, to_shard,
                           source->ContentHashOfRange(range.begin, range.end));
  bump_span.End();
  if (env_.MaybeCrash()) {
    return Unavailable("migrate: coordinator crashed");
  }

  // Copy: idempotent through InsertCopy, so recovery may re-ship.
  obs::ScopedSpan copy_span(trace, "migrate.copy", from);
  IngestQueue::ShipReport shipped = CopyRange(from, to_shard, range);
  if (env_.crashed()) {
    return Unavailable("migrate: coordinator crashed");
  }
  journal->AppendMigrateCopied(migration_id);
  copy_span.End();
  if (env_.MaybeCrash()) {
    return Unavailable("migrate: coordinator crashed");
  }
  report.entries_shipped = shipped.entries_shipped;
  report.entries_skipped = shipped.entries_skipped;
  report.batches = shipped.batches;
  report.bytes = shipped.bytes;

  // Phase 3 — delete the moved rows, then commit. A portal session pinned
  // to a pre-bump epoch still routes this range to the source shard, so
  // while such pins exist the delete (and the COMMIT that closes the
  // migration) is deferred; UnpinEpoch retires it. The journal state is the
  // ordinary bumped-but-uncommitted shape, so a crash in the window is
  // rolled forward by Recover() like any other.
  if (min_pinned_epoch() < shard_map_.epoch()) {
    obs::ScopedSpan defer_span(trace, "migrate.defer_retirement", from);
    deferred_.push_back(
        DeferredRetirement{from, range, migration_id, shard_map_.epoch()});
    env_.obs().metrics().GetCounter("portal.retirements_deferred").Add();
  } else {
    obs::ScopedSpan commit_span(trace, "migrate.commit", from);
    report.rows_deleted = source->DeleteRange(range.begin, range.end);
    if (env_.MaybeCrash()) {
      return Unavailable("migrate: coordinator crashed");
    }
    journal->AppendMigrateCommit(migration_id);
    commit_span.End();
  }
  migrate_span.End();
  env_.obs().metrics().GetHistogram("cluster.migrate_ns")
      .Record(env_.clock().now() - migrate_start);

  ++migration_stats_.migrations;
  migration_stats_.entries_shipped += report.entries_shipped;
  migration_stats_.entries_skipped += report.entries_skipped;
  migration_stats_.batches += report.batches;
  migration_stats_.bytes += report.bytes;
  migration_stats_.rows_deleted += report.rows_deleted;
  return report;
}

namespace {

double MaxMinRatio(uint64_t max_rows, uint64_t min_rows) {
  if (max_rows == 0) {
    return 1.0;  // empty cluster is trivially balanced
  }
  if (min_rows == 0) {
    return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(max_rows) / static_cast<double>(min_rows);
}

std::pair<size_t, size_t> Extremes(const std::vector<uint64_t>& rows) {
  size_t max_shard = 0;
  size_t min_shard = 0;
  for (size_t shard = 1; shard < rows.size(); ++shard) {
    if (rows[shard] > rows[max_shard]) {
      max_shard = shard;
    }
    if (rows[shard] < rows[min_shard]) {
      min_shard = shard;
    }
  }
  return {max_shard, min_shard};
}

}  // namespace

RebalanceReport ClusterCoordinator::Rebalance(double max_min_ratio,
                                              int max_migrations) {
  RebalanceReport report;
  // Policy and reporting share one metric: shard_sizes()'s owned rows.
  auto owned_rows = [&] {
    std::vector<uint64_t> rows;
    rows.reserve(machines_.size());
    for (const ShardSize& size : shard_sizes()) {
      rows.push_back(size.owned_rows);
    }
    return rows;
  };

  while (report.migrations < max_migrations) {
    std::vector<uint64_t> rows = owned_rows();
    auto [max_shard, min_shard] = Extremes(rows);
    double ratio = MaxMinRatio(rows[max_shard], rows[min_shard]);
    if (ratio <= max_min_ratio) {
      break;
    }
    // Move half the imbalance, which balances the two extremes pairwise.
    uint64_t target = (rows[max_shard] - rows[min_shard]) / 2;
    if (target == 0) {
      break;
    }
    // Split the fullest shard's heaviest owned range at the pnode where the
    // prefix reaches the target.
    core::PnodeRange heaviest{};
    uint64_t heaviest_rows = 0;
    for (const auto& [range, owner] : shard_map_.Assignments()) {
      if (owner != static_cast<int>(max_shard)) {
        continue;
      }
      uint64_t range_rows =
          machines_[max_shard]->db()->RowsInRange(range.begin, range.end);
      if (range_rows > heaviest_rows) {
        heaviest_rows = range_rows;
        heaviest = range;
      }
    }
    if (heaviest_rows == 0) {
      break;  // the surplus is not in migratable subject rows
    }
    std::vector<std::pair<core::PnodeId, uint64_t>> weights =
        machines_[max_shard]->db()->PnodeRowsInRange(heaviest.begin,
                                                     heaviest.end);
    uint64_t moved = 0;
    core::PnodeId split_end = heaviest.end;
    for (const auto& [pnode, weight] : weights) {
      moved += weight;
      if (moved >= target) {
        split_end = pnode + 1;
        break;
      }
    }
    // Only migrate when the cluster-wide spread strictly shrinks — a single
    // pnode hotter than the whole imbalance would otherwise ping-pong. (The
    // ratio is no guide here: it stays infinite until every shard is
    // non-empty, even while migrations make real progress.)
    std::vector<uint64_t> predicted = rows;
    predicted[max_shard] -= moved;
    predicted[min_shard] += moved;
    auto [pred_max, pred_min] = Extremes(predicted);
    if (predicted[pred_max] - predicted[pred_min] >=
        rows[max_shard] - rows[min_shard]) {
      break;
    }
    auto migrated = MigrateRange(core::PnodeRange{heaviest.begin, split_end},
                                 static_cast<int>(min_shard));
    if (!migrated.ok()) {
      break;
    }
    ++report.migrations;
  }

  std::vector<uint64_t> rows = owned_rows();
  auto [max_shard, min_shard] = Extremes(rows);
  report.max_rows = rows[max_shard];
  report.min_rows = rows[min_shard];
  report.ratio = MaxMinRatio(report.max_rows, report.min_rows);
  report.converged = report.ratio <= max_min_ratio;
  return report;
}

std::vector<ShardSize> ClusterCoordinator::shard_sizes() const {
  std::vector<ShardSize> out(machines_.size());
  for (size_t shard = 0; shard < machines_.size(); ++shard) {
    const waldo::ProvDb* db = machines_[shard]->db();
    out[shard].records = db->RecordCount();
    out[shard].edges = db->EdgeCount();
  }
  for (const auto& [range, owner] : shard_map_.Assignments()) {
    out[owner].owned_rows +=
        machines_[owner]->db()->RowsInRange(range.begin, range.end);
  }
  return out;
}

std::vector<const waldo::ProvDb*> ClusterCoordinator::shard_dbs() const {
  std::vector<const waldo::ProvDb*> dbs;
  dbs.reserve(machines_.size());
  for (const auto& m : machines_) {
    dbs.push_back(m->db());
  }
  return dbs;
}

FederatedSource ClusterCoordinator::Source(int portal_shard,
                                           size_t cache_bytes) {
  // The portal must not observe replicas whose transfer is still in flight
  // without the elapsed time that delivery costs.
  Quiesce();
  return FederatedSource(shard_dbs(), &net_, &shard_map_, portal_shard,
                         cache_bytes, &env_.obs());
}

FrontierDelta ClusterCoordinator::FrontierSince(const FrontierCursor& cursor,
                                                int subscriber_shard) {
  // Publication RPC sizes, matching FederatedSource's nominal wire model:
  // the request names the subscriber's sequence number, the response
  // carries one row per entry and per reported edge half.
  constexpr uint64_t kHeaderBytes = 48;
  constexpr uint64_t kCursorRequestBytes = 8;
  constexpr uint64_t kPerEntryResponseBytes = 16;

  obs::ScopedSpan span(&env_.obs().trace(), "standing.frontier");
  FrontierDelta delta;
  std::map<core::PnodeId, FrontierEntry> entries;
  std::map<std::pair<core::ObjectRef, core::ObjectRef>, FrontierEdge> edges;
  for (int shard = 0; shard < shard_count(); ++shard) {
    const waldo::ProvDb& db = *machines_[shard]->db();
    delta.end.push_back(db.feed_end());
    uint64_t rows = 0;
    // The entry of an owned pnode; null for a pnode this shard does not own.
    auto entry = [&](core::PnodeId pnode) -> FrontierEntry* {
      if (shard_map_.OwnerOf(pnode) != shard) {
        return nullptr;
      }
      auto [it, added] = entries.try_emplace(pnode);
      if (added) {
        it->second = FrontierEntry{pnode, db.LatestVersionOf(pnode), shard,
                                   db.TypesOf(pnode), false};
        ++rows;
      }
      return &it->second;
    };
    if (cursor.feed == 0) {
      for (core::PnodeId pnode : db.AllPnodes()) {
        entry(pnode);
      }
    } else {
      for (const waldo::FeedRow& row : db.FeedSince(cursor.seqs[shard])) {
        FrontierEntry* keyed = entry(row.key.pnode);
        if (keyed == nullptr) {
          continue;
        }
        if (row.kind == waldo::FeedRow::Kind::kAttr) {
          keyed->attrs = true;
          continue;
        }
        bool forward = row.kind == waldo::FeedRow::Kind::kForward;
        core::ObjectRef subject = forward ? row.key : row.other;
        core::ObjectRef ancestor = forward ? row.other : row.key;
        FrontierEdge& edge = edges[{subject, ancestor}];
        edge.subject = subject;
        edge.ancestor = ancestor;
        (forward ? edge.forward : edge.reverse) = true;
        ++rows;
      }
    }
    if (rows != 0 && shard != subscriber_shard) {
      ++delta.rpcs;
      net_.RoundTrip(kHeaderBytes + kCursorRequestBytes,
                     kHeaderBytes + kPerEntryResponseBytes * rows);
    }
  }
  for (auto& [pnode, entry] : entries) {
    delta.entries.push_back(std::move(entry));
  }
  for (auto& [key, edge] : edges) {
    delta.edges.push_back(edge);
  }
  return delta;
}

void ClusterCoordinator::CommitFrontier(FrontierCursor* cursor,
                                        const std::vector<uint64_t>& end) {
  bool open = cursor->feed == 0;
  if (open) {
    cursor->feed = next_frontier_feed_++;
  }
  for (int shard = 0; shard < shard_count(); ++shard) {
    waldo::ProvDb* db = machines_[shard]->db();
    if (open) {
      db->OpenFeed(cursor->feed, end[shard]);
    } else {
      db->AdvanceFeed(cursor->feed, end[shard]);
    }
  }
  cursor->seqs = end;
}

void ClusterCoordinator::CloseFrontier(FrontierCursor* cursor) {
  if (cursor->feed == 0) {
    return;
  }
  for (const auto& m : machines_) {
    m->db()->CloseFeed(cursor->feed);
  }
  *cursor = FrontierCursor();
}

IngestQueue::ShipReport ClusterCoordinator::CopyRange(int from, int to,
                                                      core::PnodeRange range) {
  const waldo::ProvDb& source = *machines_[from]->db();
  IngestQueue::ShipReport shipped =
      queue_->ShipTo(to, source.EntriesInRange(range.begin, range.end));
  machines_[to]->db()->AppendFeed(
      source.FeedRowsInRange(range.begin, range.end));
  return shipped;
}

EpochDigest ClusterCoordinator::ComputeEpochDigest() {
  // In-flight replication mutates replica rows; the barrier makes the
  // digest a function of settled state only.
  Quiesce();
  EpochDigest digest;
  digest.epoch = shard_map_.epoch();
  digest.shards.resize(machines_.size());
  for (size_t shard = 0; shard < machines_.size(); ++shard) {
    ShardDigest& sd = digest.shards[shard];
    sd.shard = static_cast<int>(shard);
    sd.journal_head = journals_[shard]->chain_head();
    sd.journal_frames = journals_[shard]->chain_frames();
  }
  for (const auto& [range, owner] : shard_map_.Assignments()) {
    ShardDigest& sd = digest.shards[owner];
    Md5Digest content =
        machines_[owner]->db()->ContentHashOfRange(range.begin, range.end);
    for (size_t i = 0; i < sd.ranges_digest.size(); ++i) {
      sd.ranges_digest[i] ^= content[i];
    }
    ++sd.owned_ranges;
  }
  for (ShardDigest& sd : digest.shards) {
    std::string leaf;
    leaf.append(reinterpret_cast<const char*>(sd.journal_head.data()),
                sd.journal_head.size());
    leaf.append(reinterpret_cast<const char*>(sd.ranges_digest.data()),
                sd.ranges_digest.size());
    PutU64(&leaf, digest.epoch);
    sd.digest = Md5::Hash(leaf);
  }
  // Pairwise Merkle reduction; an odd node is promoted unhashed.
  std::vector<Md5Digest> level;
  level.reserve(digest.shards.size());
  for (const ShardDigest& sd : digest.shards) {
    level.push_back(sd.digest);
  }
  while (level.size() > 1) {
    std::vector<Md5Digest> next;
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      std::string pair;
      pair.append(reinterpret_cast<const char*>(level[i].data()),
                  level[i].size());
      pair.append(reinterpret_cast<const char*>(level[i + 1].data()),
                  level[i + 1].size());
      next.push_back(Md5::Hash(pair));
    }
    if (level.size() % 2 == 1) {
      next.push_back(level.back());
    }
    level = std::move(next);
  }
  if (!level.empty()) {
    digest.root = level[0];
  }
  return digest;
}

void ClusterCoordinator::MergeInto(waldo::ProvDb* out) const {
  for (size_t shard = 0; shard < machines_.size(); ++shard) {
    const waldo::ProvDb* db = machines_[shard]->db();
    for (core::PnodeId pnode : db->AllPnodes()) {
      if (shard_map_.OwnerOf(pnode) != static_cast<int>(shard)) {
        continue;  // replicated or out-migrated copy; the owner replays it
      }
      for (core::Version version : db->VersionsOf(pnode)) {
        core::ObjectRef ref{pnode, version};
        for (const core::Record& record : db->RecordsOf(ref)) {
          out->Insert(lasagna::LogEntry{ref, record});
        }
        for (const core::ObjectRef& ancestor : db->Inputs(ref)) {
          out->Insert(lasagna::LogEntry{ref, core::Record::Input(ancestor)});
        }
      }
    }
  }
}

Result<std::vector<std::string>> MergedRows(const ClusterCoordinator& cluster,
                                            const std::string& query) {
  waldo::ProvDb merged;
  cluster.MergeInto(&merged);
  pql::ProvDbSource source(&merged);
  PASS_ASSIGN_OR_RETURN(pql::QueryResult result,
                        pql::Engine(&source).Run(query));
  return result.SortedRows();
}

Status CheckEquivalent(ClusterCoordinator& cluster,
                       const std::vector<std::string>& queries) {
  FederatedSource federated = cluster.Source(/*portal_shard=*/0);
  pql::Engine engine(&federated);
  for (const std::string& query : queries) {
    auto got = engine.Run(query);
    if (!got.ok()) {
      return Internal("federated: " + got.status().ToString() + ": " + query);
    }
    auto want = MergedRows(cluster, query);
    if (!want.ok()) {
      return Internal("merged: " + want.status().ToString() + ": " + query);
    }
    if (got->SortedRows() != *want) {
      return Internal("federated != merged: " + query);
    }
  }
  return Status::Ok();
}

}  // namespace pass::cluster
