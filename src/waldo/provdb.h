#ifndef SRC_WALDO_PROVDB_H_
#define SRC_WALDO_PROVDB_H_

// The provenance database Waldo maintains (§5.6): records move from the
// Lasagna log into an indexed store that the query engine (PQL) reads.
//
// Layout (two KvStores so Table 3 can report "provenance" and
// "provenance + indexes" separately, like the paper):
//
//   records store:  r/<pnode>/<version> -> encoded Record
//   index store:    n/<name>            -> pnode            (NAME records)
//                   t/<type>            -> pnode            (TYPE records)
//                   i/<pnode>/<version> -> encoded ancestor (INPUT edges)
//                   o/<pnode>/<version> -> encoded child    (reverse edges)
//
// Each row lives twice: as a store frame, the on-disk image Table 3 counts,
// and in an in-memory mirror (attrs_, inputs_, outputs_), the only read
// path. No query reads a store; Deserialize rebuilds the mirrors by
// replaying the stores (round-trip tested).

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/provenance.h"
#include "src/lasagna/log_format.h"
#include "src/waldo/kvstore.h"

namespace pass::waldo {

struct ProvDbStats {
  uint64_t records = 0;
  uint64_t edges = 0;
  uint64_t objects = 0;
  uint64_t db_bytes = 0;     // records store
  uint64_t index_bytes = 0;  // index store
};

class ProvDb {
 public:
  ProvDb() = default;

  // Ingest one recovered/parsed log entry.
  void Insert(const lasagna::LogEntry& entry);

  // ---- Query surface (used by the PQL adapter) ----------------------------
  // Attribute records of one object version (INPUT edges excluded).
  std::vector<core::Record> RecordsOf(const core::ObjectRef& ref) const;
  // All records across every version (attributes of "the object").
  std::vector<core::Record> RecordsOfAllVersions(core::PnodeId pnode) const;
  // Direct ancestors of one object version.
  std::vector<core::ObjectRef> Inputs(const core::ObjectRef& ref) const;
  // Objects that list `ref` as an ancestor (reverse edges).
  std::vector<core::ObjectRef> Outputs(const core::ObjectRef& ref) const;
  // Known versions of a pnode (ascending).
  std::vector<core::Version> VersionsOf(core::PnodeId pnode) const;
  // Latest known version of a pnode (0 when the pnode is unknown).
  core::Version LatestVersionOf(core::PnodeId pnode) const;
  // Lookup by NAME / TYPE attribute.
  std::vector<core::PnodeId> PnodesByName(std::string_view name) const;
  std::vector<core::PnodeId> PnodesByType(std::string_view type) const;
  // Latest known name of an object (for rendering query results).
  std::string NameOf(core::PnodeId pnode) const;
  std::vector<core::PnodeId> AllPnodes() const;

  // ---- Bulk query surface (used by batched federated RPCs) ----------------
  // Each call is the shard-side handler for one frontier-shipping RPC from
  // cluster::FederatedSource: a whole frontier's worth of lookups answered
  // in one exchange. Results align positionally with the request vector.
  std::vector<std::vector<core::ObjectRef>> InputsMany(
      const std::vector<core::ObjectRef>& refs) const;
  std::vector<std::vector<core::ObjectRef>> OutputsMany(
      const std::vector<core::ObjectRef>& refs) const;
  std::vector<std::vector<core::Record>> RecordsOfAllVersionsMany(
      const std::vector<core::PnodeId>& pnodes) const;

  // ---- Range surface (used by cluster migration / rebalancing) ------------
  // Insert exactly the rows of `entry` that are missing. An INPUT edge can
  // be *half* present here: replication and range deletion each touch only
  // the rows keyed by one endpoint, so a database may hold the forward row
  // without the reverse one (or vice versa). Returns false when nothing was
  // missing. Migration traffic lands through this, keeping it idempotent.
  bool InsertUnique(const lasagna::LogEntry& entry);
  // Every log entry needed to reconstitute the objects whose pnode lies in
  // [begin, end) on another database: their attribute records, their forward
  // INPUT edges, and the reverse-index rows naming them as ancestor of an
  // out-of-range subject.
  std::vector<lasagna::LogEntry> EntriesInRange(core::PnodeId begin,
                                                core::PnodeId end) const;
  // Drop every row *keyed* by a pnode in [begin, end): attribute records and
  // forward edges of in-range subjects, reverse rows of in-range ancestors,
  // and their name/type index entries. Rows keyed by out-of-range pnodes —
  // forward edges into the range, reverse rows listing in-range subjects —
  // stay, because this database still owns those subjects/ancestors.
  // Returns the number of rows removed.
  uint64_t DeleteRange(core::PnodeId begin, core::PnodeId end);
  // Rows (attribute records + forward edges) whose subject pnode lies in
  // [begin, end) — the size metric rebalancing uses.
  uint64_t RowsInRange(core::PnodeId begin, core::PnodeId end) const;
  // Per-pnode row weights over [begin, end), ascending by pnode; pnodes
  // known only as ancestors report weight 0. Used to split migration ranges.
  std::vector<std::pair<core::PnodeId, uint64_t>> PnodeRowsInRange(
      core::PnodeId begin, core::PnodeId end) const;

  uint64_t RecordCount() const { return record_count_; }
  uint64_t EdgeCount() const { return edge_count_; }

  // ---- Per-range mutation fingerprints -------------------------------------
  // The pnode space is carved into power-of-two buckets of
  // 2^kRangeBucketBits pnodes, and every call that writes or removes rows
  // (Insert, an inserting InsertUnique, a removing DeleteRange) bumps the
  // bucket of each pnode that *keys* a touched row (the subject of an
  // attribute record or forward edge, the ancestor of a reverse row). A
  // per-node result cached from this database is stale iff the bucket of its
  // keying pnode moved, so the federated portal invalidates exactly the
  // entries whose range actually changed, and ingest elsewhere costs none.
  static constexpr int kRangeBucketBits = 6;  // 64 pnodes per bucket

  static constexpr uint64_t RangeBucketOf(core::PnodeId pnode) {
    return pnode >> kRangeBucketBits;
  }

  // Mutation counter of the bucket holding `pnode` (0 = never touched).
  uint64_t range_mutation_count(core::PnodeId pnode) const {
    auto it = range_mutations_.find(RangeBucketOf(pnode));
    return it == range_mutations_.end() ? 0 : it->second;
  }

  // The whole bucket-counter map. Frontier publication diffs a snapshot of
  // this against the live map: a bucket whose counter moved holds at least
  // one pnode whose rows changed, so the pnodes of dirty buckets are the
  // shard's "new/changed pnode" frontier since the snapshot.
  const std::map<uint64_t, uint64_t>& range_mutation_buckets() const {
    return range_mutations_;
  }

  // Pnodes with at least one known version in [begin, end), ascending (same
  // membership rule as AllPnodes, restricted to the range).
  std::vector<core::PnodeId> PnodesInRange(core::PnodeId begin,
                                           core::PnodeId end) const;

  // Latest TYPE attribute value of `pnode` ("" when untyped).
  std::string TypeOf(core::PnodeId pnode) const;

  // ---- Content fingerprints (audit plane) ----------------------------------
  // Order-independent content hash of [begin, end): the XOR fold of the MD5
  // of every row EntriesInRange would export. Two databases holding the
  // same rows for the range produce the same digest regardless of insertion
  // order, so the digest a migration seals into its EPOCH_BUMP custody
  // record can be re-checked on the destination shard after the move.
  // (Caveat, acceptable for audit: a row inserted an *even* number of times
  // cancels out — but InsertUnique dedupes, so duplicates never land.)
  // `bytes_hashed` (optional) returns the encoded bytes the fold digested,
  // so auditors can charge the verification's CPU cost.
  Md5Digest ContentHashOfRange(core::PnodeId begin, core::PnodeId end,
                               uint64_t* bytes_hashed = nullptr) const;

  ProvDbStats stats() const;

  // Persist the database as its two KvStore images / rebuild it from them.
  // The in-memory mirrors are reconstructed from the stores: a restored
  // database returns the same result *sets* for every query. Per-subject
  // record order and per-ancestor Outputs() order are preserved (the stores
  // keep per-key insertion order; edges rebuild from 'i/' and 'o/' keys
  // independently, so even half-rows left by DeleteRange round-trip).
  // Caveats: NameOf() under renames across versions follows store key
  // order, and VersionsOf()/AllPnodes() may resurface a range-deleted
  // pnode still referenced by surviving out-of-range edges.
  std::string Serialize() const;
  static Result<ProvDb> Deserialize(std::string_view image);

 private:
  // Shared row paths. Insert writes an attribute row's store frames itself;
  // WriteEdge writes the requested halves of an INPUT edge (the forward 'i/'
  // row keyed by the subject, the reverse 'o/' row keyed by the ancestor)
  // and bumps their keying buckets. Both then call the kind's Mirror* path,
  // which keeps the mirror and its bookkeeping (versions_, names_, by_name_,
  // by_type_, the row counts). Deserialize calls only the Mirror* paths, so
  // a restore writes no store frame and moves no fingerprint.
  void WriteEdge(const core::ObjectRef& subject,
                 const core::ObjectRef& ancestor, bool forward, bool reverse);
  void MirrorAttr(const core::ObjectRef& subject, core::Record record);
  void MirrorEdge(const core::ObjectRef& subject,
                  const core::ObjectRef& ancestor, bool forward, bool reverse);

  KvStore records_{/*segment_bytes=*/4u << 20};
  KvStore indexes_{/*segment_bytes=*/4u << 20};

  // In-memory mirrors, each key's rows in insertion order (query results
  // and the portal cache's access order follow it). InsertUnique checks
  // membership by scanning a key's row vector: attribute and forward-edge
  // lists hold a handful of rows, and most reverse lists 16 or fewer.
  std::map<core::ObjectRef, std::vector<core::Record>> attrs_;
  std::map<core::ObjectRef, std::vector<core::ObjectRef>> inputs_;
  std::map<core::ObjectRef, std::vector<core::ObjectRef>> outputs_;
  std::map<core::PnodeId, std::set<core::Version>> versions_;
  std::map<std::string, std::set<core::PnodeId>> by_name_;
  std::map<std::string, std::set<core::PnodeId>> by_type_;
  std::map<core::PnodeId, std::string> names_;
  uint64_t record_count_ = 0;
  uint64_t edge_count_ = 0;
  // bucket id (pnode >> kRangeBucketBits) -> mutations touching rows keyed
  // by a pnode in that bucket.
  std::map<uint64_t, uint64_t> range_mutations_;
};

}  // namespace pass::waldo

#endif  // SRC_WALDO_PROVDB_H_
