#ifndef SRC_WALDO_PROVDB_H_
#define SRC_WALDO_PROVDB_H_

// The provenance database Waldo maintains (§5.6): records move from the
// Lasagna log into an indexed store that the query engine (PQL) reads.
//
// Each row lives once, in a node table ordered by pnode: a node holds its
// pnode's versions, ascending, each with its attribute, forward and reverse
// rows, plus the pnode's latest name and its change stamp. A row costs one
// node lookup per pnode it names.
//
// Table 3 reports the database as two key/value stores, "provenance" and
// "provenance + indexes", like the paper. Their bytes are a size model
// (kvstore.h) fed the size of each key and value a row would write:
//
//   records store:  r/<pnode>/<version> -> encoded Record
//   index store:    n/<name>            -> pnode            (NAME records)
//                   t/<type>            -> pnode            (TYPE records)
//                   i/<pnode>/<version> -> encoded ancestor (INPUT edges)
//                   o/<pnode>/<version> -> encoded child    (reverse edges)
//
// A ref key is the prefix, the pnode in 16 hex digits and the version in 8
// (27 bytes); a name or type key is the prefix and the text; a ref value is
// 12 bytes. An r/, i/ or o/ key holds exactly one version's attribute,
// forward or reverse rows, so DeleteRange reads a deleted key's values off
// the node table; an n/ or t/ key's value count is kept beside its index
// entry.

#include <map>
#include <ranges>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/provenance.h"
#include "src/lasagna/log_format.h"
#include "src/waldo/kvstore.h"

namespace pass::waldo {

// One row a database wrote, as its feed reports it (see ProvDb's "Row
// feed" section).
struct FeedRow {
  enum class Kind : uint8_t {
    kAttr,     // attribute record of `key`
    kForward,  // forward INPUT row: `key` lists `other` as an ancestor
    kReverse,  // reverse INPUT row: `other` lists `key` as an ancestor
  };
  Kind kind = Kind::kAttr;
  core::ObjectRef key;    // the ref keying the row
  core::ObjectRef other;  // the edge's other endpoint (INPUT rows only)
};

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

  // ---- Bulk query surface (used by PQL sources and batched federated RPCs) -
  // Each call answers a whole frontier or root set in one exchange: it is
  // the shard-side handler of one frontier-shipping RPC from
  // cluster::FederatedSource, and pql::ProvDbSource reads through the same
  // calls. Per-node results align positionally with the request vector.
  std::vector<std::vector<core::ObjectRef>> InputsMany(
      const std::vector<core::ObjectRef>& refs) const;
  std::vector<std::vector<core::ObjectRef>> OutputsMany(
      const std::vector<core::ObjectRef>& refs) const;
  // The values of attribute `attr` on each pnode: its rows across every
  // version, oldest version first and each version's rows in insertion
  // order, keeping only the rows that answer `attr`. One rule, resolved
  // once per call, decides which rows answer: a row answers when its
  // attribute name equals `attr` ignoring ASCII case. A row's name is its
  // key for an annotation, and otherwise its kind's name as queries spell
  // it ("name", "type", "pid", "argv", "env", "freeze", "params",
  // "visited_url", "file_url", "current_url", "input", "begintxn",
  // "endtxn"; "unknown" for a kind core::AttrName does not name). The
  // pointers address this database's rows and stay valid until its next
  // write.
  std::vector<std::vector<const core::Value*>> AttributeValuesMany(
      const std::vector<core::PnodeId>& pnodes, std::string_view attr) const;
  // Root-set members at their latest versions, ascending by pnode: every
  // pnode (AllPnodes), or the pnodes with a TYPE row `type` (PnodesByType).
  std::vector<core::ObjectRef> LatestOfAll() const;
  std::vector<core::ObjectRef> LatestOfType(std::string_view type) const;

  // ---- Range surface (used by cluster migration / rebalancing) ------------
  // Insert exactly the rows of `entry` that are missing. An INPUT edge can
  // be *half* present here: replication and range deletion each touch only
  // the rows keyed by one endpoint, so a database may hold the forward row
  // without the reverse one (or vice versa). Returns false when nothing was
  // missing. Migration traffic lands through this, keeping it idempotent.
  bool InsertUnique(const lasagna::LogEntry& entry);
  // InsertUnique for a migration copy: the same rows, written to no feed.
  // A copy adds nothing to the logical graph; the coordinator carries the
  // source's kept feed rows for the range over instead (AppendFeed).
  bool InsertCopy(const lasagna::LogEntry& entry);
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

  // ---- Per-pnode change stamps ----------------------------------------------
  // Every row written (by Insert, an inserting InsertUnique or InsertCopy)
  // takes the next number of one database-wide sequence, and the pnode that
  // *keys* the row (the subject of an attribute record or forward edge, the
  // ancestor of a reverse row) keeps that number as its stamp. A
  // DeleteRange that removes rows moves the sequence once and forgets the
  // range's stamps. Numbers never repeat, so a per-node result read here
  // while its pnode's stamp was s is current while the stamp still reads
  // s: for s > 0 no row keyed by the pnode changed since, and 0 means the
  // pnode keys no row here, then and now.
  // The federated portal thus drops exactly the entries whose pnode
  // changed; ingest keyed by other pnodes, neighbours included, costs none.
  //
  // Stamp of `pnode` (0 when no row here is keyed by it).
  uint64_t StampOf(core::PnodeId pnode) const {
    auto it = nodes_.find(pnode);
    return it == nodes_.end() ? 0 : it->second.stamp;
  }
  // The end of the sequence: it moves on every row written or removed
  // (bench/harness.h sums it to tell whether anything changed between two
  // queries).
  uint64_t stamp() const { return stamp_; }

  // Every TYPE text whose index holds `pnode`, ascending (empty when
  // untyped): a pnode is a member of each of those root sets.
  std::vector<std::string> TypesOf(core::PnodeId pnode) const;

  // ---- Row feed (standing-query plane) --------------------------------------
  // Every row Insert or InsertUnique writes gets the next sequence number,
  // and while at least one feed cursor is open the database keeps the rows
  // from the oldest cursor on. A reader holds a cursor per database and
  // reads the rows written since it (FeedSince); advancing every cursor
  // past a row drops it. With no cursor open nothing is kept, so a database
  // nobody subscribes to pays one counter increment per row. Deletions are
  // not fed: rows only leave a database when their range moved elsewhere.
  uint64_t feed_end() const { return feed_end_; }
  // Open cursor `id` at `seq` (at least the oldest kept row, at most
  // feed_end()).
  void OpenFeed(uint64_t id, uint64_t seq);
  // Move cursor `id` to `seq` and drop the rows every cursor has passed.
  void AdvanceFeed(uint64_t id, uint64_t seq);
  void CloseFeed(uint64_t id);
  // The kept rows at sequence numbers [seq, feed_end()), oldest first.
  // `seq` must not precede the oldest open cursor.
  std::span<const FeedRow> FeedSince(uint64_t seq) const;
  // Kept rows keyed by a pnode in [begin, end), and appending rows read
  // from another database's feed: migration moves a range's unread rows
  // with the range (see InsertCopy).
  std::vector<FeedRow> FeedRowsInRange(core::PnodeId begin,
                                       core::PnodeId end) const;
  void AppendFeed(const std::vector<FeedRow>& rows);

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

 private:
  // One version of a pnode: its rows of each kind, in insertion order (query
  // results and the portal cache's access order follow it). InsertUnique
  // checks membership by scanning a list: attribute and forward-edge lists
  // hold a handful of rows, and most reverse lists 16 or fewer.
  struct VersionRows {
    core::Version version = 0;
    std::vector<core::Record> attrs;       // attribute rows ('r/')
    std::vector<core::ObjectRef> inputs;   // forward rows: ancestors ('i/')
    std::vector<core::ObjectRef> outputs;  // reverse rows: subjects ('o/')
  };
  // The node of one pnode. A node exists for every pnode a row here names,
  // ancestor-only ones included, and holds each version a row names.
  struct Node {
    std::vector<VersionRows> versions;  // ascending by version
    std::string name;    // the latest NAME row's value ("" when none)
    uint64_t stamp = 0;  // 0 while no row here is keyed by the pnode
    // The rows of `version`, inserted in order when it is new. An insert
    // can move every version's rows, so it invalidates references into the
    // node's versions.
    VersionRows& Rows(core::Version version);
    // The newest version (0 when the node holds none).
    core::Version Latest() const {
      return versions.empty() ? 0 : versions.back().version;
    }
  };
  // Where one row lands: the node of the pnode keying it and that version's
  // rows, looked up once per row.
  struct Slot {
    Node* node;
    VersionRows* rows;
  };
  // The slot of `ref`, creating its node and version when they are new.
  Slot SlotOf(const core::ObjectRef& ref);
  // The subject's and the ancestor's slots of one INPUT edge, both
  // versions created before either slot is taken: with a same-pnode edge
  // ({p, 2} INPUT {p, 1}) creating one version moves the other's rows.
  std::pair<Slot, Slot> EdgeSlots(const core::ObjectRef& subject,
                                  const core::ObjectRef& ancestor);
  const VersionRows* FindRows(const core::ObjectRef& ref) const;
  // The nodes of pnodes [begin, end), in pnode order (none when end <=
  // begin).
  using NodeRange =
      std::ranges::subrange<std::map<core::PnodeId, Node>::const_iterator>;
  NodeRange NodesIn(core::PnodeId begin, core::PnodeId end) const;

  // Shared row paths. WriteAttr writes an attribute row; WriteEdge writes
  // the requested halves of an INPUT edge (the forward 'i/' row keyed by the
  // subject, the reverse 'o/' row keyed by the ancestor). Each appends to
  // the feed when `feed` is set, counts the row in the store sizes, appends
  // it to its slot and keeps the bookkeeping (the keying stamps, the node's
  // name, by_name_, by_type_, the row counts).
  void WriteAttr(Slot slot, const core::ObjectRef& subject,
                 const core::Record& record, bool feed);
  void WriteEdge(Slot subject_slot, Slot ancestor_slot,
                 const core::ObjectRef& subject,
                 const core::ObjectRef& ancestor, bool forward, bool reverse,
                 bool feed);
  bool InsertMissing(const lasagna::LogEntry& entry, bool feed);
  void Feed(FeedRow::Kind kind, const core::ObjectRef& key,
            const core::ObjectRef& other);

  KvStoreSize records_;
  KvStoreSize indexes_;

  // Ordered by pnode, so a range's nodes are adjacent and its versions come
  // out in ObjectRef order.
  std::map<core::PnodeId, Node> nodes_;
  // The pnodes with a NAME (TYPE) row of one text, and how many values the
  // index store holds under the text's n/ (t/) key: one per such row
  // written, reset to one per surviving pnode when DeleteRange prunes the
  // entry.
  struct Members {
    std::set<core::PnodeId> pnodes;
    uint64_t values = 0;
  };
  std::map<std::string, Members> by_name_;
  std::map<std::string, Members> by_type_;
  uint64_t record_count_ = 0;
  uint64_t edge_count_ = 0;
  uint64_t stamp_ = 0;  // the sequence's last number
  // Row feed: feed_[i] carries sequence number feed_end_ - feed_.size() + i.
  std::vector<FeedRow> feed_;
  uint64_t feed_end_ = 0;
  std::map<uint64_t, uint64_t> feed_cursors_;  // cursor id -> sequence
};

}  // namespace pass::waldo

#endif  // SRC_WALDO_PROVDB_H_
