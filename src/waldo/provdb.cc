#include "src/waldo/provdb.h"

#include <algorithm>
#include <cctype>
#include <iterator>

#include "src/util/logging.h"
#include "src/util/md5.h"

namespace pass::waldo {
namespace {

// Store key and value sizes (see provdb.h): a ref key
// "<prefix>/<%016llx pnode>/<%08x version>", a name or type key
// "<prefix>/<text>", and an encoded ref value.
constexpr uint64_t kRefKeyBytes = 2 + 16 + 1 + 8;
constexpr uint64_t kRefBytes = 8 + 4;

uint64_t TextKeyBytes(std::string_view text) { return 2 + text.size(); }

char LowerAscii(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

// The attribute names of the row kinds, as queries spell them. An
// annotation row answers to its key instead, and a kind missing here to
// "unknown".
constexpr std::pair<core::Attr, std::string_view> kKindNames[] = {
    {core::Attr::kInput, "input"},
    {core::Attr::kName, "name"},
    {core::Attr::kType, "type"},
    {core::Attr::kArgv, "argv"},
    {core::Attr::kEnv, "env"},
    {core::Attr::kPid, "pid"},
    {core::Attr::kFreeze, "freeze"},
    {core::Attr::kBeginTxn, "begintxn"},
    {core::Attr::kEndTxn, "endtxn"},
    {core::Attr::kParams, "params"},
    {core::Attr::kVisitedUrl, "visited_url"},
    {core::Attr::kFileUrl, "file_url"},
    {core::Attr::kCurrentUrl, "current_url"},
};

bool Named(core::Attr kind) {
  return std::any_of(std::begin(kKindNames), std::end(kKindNames),
                     [&](const auto& entry) { return entry.first == kind; });
}

// The rows that answer one attribute name (see AttributeValuesMany),
// resolved once from the name: at most one named kind, or every unnamed
// kind for "unknown", plus the annotation rows keyed by the name in any
// case.
class AttrMatch {
 public:
  explicit AttrMatch(std::string_view attr) : want_(attr) {
    for (char& c : want_) {
      c = LowerAscii(c);
    }
    for (const auto& [kind, name] : kKindNames) {
      if (name == want_) {
        kind_ = kind;
      }
    }
    unnamed_ = want_ == "unknown";
  }

  bool Answers(const core::Record& row) const {
    if (row.attr == core::Attr::kAnnotation) {
      return std::equal(row.key.begin(), row.key.end(), want_.begin(),
                        want_.end(),
                        [](char a, char b) { return LowerAscii(a) == b; });
    }
    return unnamed_ ? !Named(row.attr) : row.attr == kind_;
  }

 private:
  std::string want_;  // the asked name, lowercase
  core::Attr kind_ = core::Attr::kAnnotation;  // kAnnotation: no named kind
  bool unnamed_ = false;
};

// Orders a node's versions for std::lower_bound.
constexpr auto kVersionBefore = [](const auto& rows, core::Version version) {
  return rows.version < version;
};

template <typename Row>
bool Contains(const std::vector<Row>& rows, const Row& row) {
  return std::find(rows.begin(), rows.end(), row) != rows.end();
}

}  // namespace

ProvDb::VersionRows& ProvDb::Node::Rows(core::Version version) {
  auto it = std::lower_bound(versions.begin(), versions.end(), version,
                             kVersionBefore);
  if (it == versions.end() || it->version != version) {
    it = versions.insert(it, VersionRows());
    it->version = version;
  }
  return *it;
}

ProvDb::Slot ProvDb::SlotOf(const core::ObjectRef& ref) {
  Node& node = nodes_[ref.pnode];
  return {&node, &node.Rows(ref.version)};
}

std::pair<ProvDb::Slot, ProvDb::Slot> ProvDb::EdgeSlots(
    const core::ObjectRef& subject, const core::ObjectRef& ancestor) {
  Node& subject_node = nodes_[subject.pnode];
  subject_node.Rows(subject.version);
  Slot ancestor_slot = SlotOf(ancestor);
  // The subject's version exists by now, so this finds it and moves no
  // rows.
  return {{&subject_node, &subject_node.Rows(subject.version)},
          ancestor_slot};
}

const ProvDb::VersionRows* ProvDb::FindRows(
    const core::ObjectRef& ref) const {
  auto node = nodes_.find(ref.pnode);
  if (node == nodes_.end()) {
    return nullptr;
  }
  const std::vector<VersionRows>& versions = node->second.versions;
  auto it = std::lower_bound(versions.begin(), versions.end(), ref.version,
                             kVersionBefore);
  return it != versions.end() && it->version == ref.version ? &*it : nullptr;
}

ProvDb::NodeRange ProvDb::NodesIn(core::PnodeId begin,
                                  core::PnodeId end) const {
  auto first = nodes_.lower_bound(begin);
  return {first, end <= begin ? first : nodes_.lower_bound(end)};
}

void ProvDb::Insert(const lasagna::LogEntry& entry) {
  const core::ObjectRef& subject = entry.subject;
  const core::Record& record = entry.record;

  if (record.attr == core::Attr::kInput) {
    if (const auto* ancestor = std::get_if<core::ObjectRef>(&record.value)) {
      auto [subject_slot, ancestor_slot] = EdgeSlots(subject, *ancestor);
      WriteEdge(subject_slot, ancestor_slot, subject, *ancestor,
                /*forward=*/true, /*reverse=*/true, /*feed=*/true);
    } else {
      // No edge to store: the subject version is only made known.
      SlotOf(subject);
    }
    return;
  }
  WriteAttr(SlotOf(subject), subject, record, /*feed=*/true);
}

void ProvDb::WriteAttr(Slot slot, const core::ObjectRef& subject,
                       const core::Record& record, bool feed) {
  if (feed) {
    Feed(FeedRow::Kind::kAttr, subject, {});
  }
  records_.Put(kRefKeyBytes, core::EncodedSize(record));
  slot.node->stamp = ++stamp_;
  const auto* text = std::get_if<std::string>(&record.value);
  bool named = record.attr == core::Attr::kName;
  if (text != nullptr && (named || record.attr == core::Attr::kType)) {
    Members& members = (named ? by_name_ : by_type_)[*text];
    members.pnodes.insert(subject.pnode);
    ++members.values;
    indexes_.Put(TextKeyBytes(*text), kRefBytes);
    if (named) {
      slot.node->name = *text;
    }
  }
  slot.rows->attrs.push_back(record);
  ++record_count_;
}

void ProvDb::WriteEdge(Slot subject_slot, Slot ancestor_slot,
                       const core::ObjectRef& subject,
                       const core::ObjectRef& ancestor, bool forward,
                       bool reverse, bool feed) {
  if (forward) {
    if (feed) {
      Feed(FeedRow::Kind::kForward, subject, ancestor);
    }
    indexes_.Put(kRefKeyBytes, kRefBytes);
    subject_slot.rows->inputs.push_back(ancestor);
    ++edge_count_;  // edge_count_ counts forward rows
    subject_slot.node->stamp = ++stamp_;
  }
  if (reverse) {
    if (feed) {
      Feed(FeedRow::Kind::kReverse, ancestor, subject);
    }
    indexes_.Put(kRefKeyBytes, kRefBytes);
    ancestor_slot.rows->outputs.push_back(subject);
    ancestor_slot.node->stamp = ++stamp_;
  }
}

void ProvDb::Feed(FeedRow::Kind kind, const core::ObjectRef& key,
                  const core::ObjectRef& other) {
  ++feed_end_;
  if (!feed_cursors_.empty()) {
    feed_.push_back(FeedRow{kind, key, other});
  }
}

void ProvDb::OpenFeed(uint64_t id, uint64_t seq) {
  PASS_CHECK(seq + feed_.size() >= feed_end_ && seq <= feed_end_);
  feed_cursors_[id] = seq;
}

void ProvDb::AdvanceFeed(uint64_t id, uint64_t seq) {
  PASS_CHECK(seq <= feed_end_);
  feed_cursors_[id] = seq;
  uint64_t oldest = seq;
  for (const auto& [cursor, at] : feed_cursors_) {
    oldest = std::min(oldest, at);
  }
  uint64_t begin = feed_end_ - feed_.size();
  if (oldest > begin) {
    feed_.erase(feed_.begin(),
                feed_.begin() + static_cast<std::ptrdiff_t>(oldest - begin));
  }
}

void ProvDb::CloseFeed(uint64_t id) {
  feed_cursors_.erase(id);
  if (feed_cursors_.empty()) {
    feed_.clear();
  }
}

std::span<const FeedRow> ProvDb::FeedSince(uint64_t seq) const {
  uint64_t begin = feed_end_ - feed_.size();
  PASS_CHECK(seq >= begin && seq <= feed_end_);
  return std::span<const FeedRow>(feed_).subspan(seq - begin);
}

std::vector<FeedRow> ProvDb::FeedRowsInRange(core::PnodeId begin,
                                             core::PnodeId end) const {
  std::vector<FeedRow> out;
  for (const FeedRow& row : feed_) {
    if (row.key.pnode >= begin && row.key.pnode < end) {
      out.push_back(row);
    }
  }
  return out;
}

void ProvDb::AppendFeed(const std::vector<FeedRow>& rows) {
  for (const FeedRow& row : rows) {
    Feed(row.kind, row.key, row.other);
  }
}

std::vector<core::Record> ProvDb::RecordsOf(const core::ObjectRef& ref) const {
  const VersionRows* rows = FindRows(ref);
  return rows == nullptr ? std::vector<core::Record>() : rows->attrs;
}

std::vector<core::Record> ProvDb::RecordsOfAllVersions(
    core::PnodeId pnode) const {
  std::vector<core::Record> out;
  auto it = nodes_.find(pnode);
  if (it == nodes_.end()) {
    return out;
  }
  for (const VersionRows& rows : it->second.versions) {
    out.insert(out.end(), rows.attrs.begin(), rows.attrs.end());
  }
  return out;
}

std::vector<core::ObjectRef> ProvDb::Inputs(const core::ObjectRef& ref) const {
  const VersionRows* rows = FindRows(ref);
  return rows == nullptr ? std::vector<core::ObjectRef>() : rows->inputs;
}

std::vector<core::ObjectRef> ProvDb::Outputs(
    const core::ObjectRef& ref) const {
  const VersionRows* rows = FindRows(ref);
  return rows == nullptr ? std::vector<core::ObjectRef>() : rows->outputs;
}

std::vector<std::vector<core::ObjectRef>> ProvDb::InputsMany(
    const std::vector<core::ObjectRef>& refs) const {
  std::vector<std::vector<core::ObjectRef>> out;
  out.reserve(refs.size());
  for (const core::ObjectRef& ref : refs) {
    out.push_back(Inputs(ref));
  }
  return out;
}

std::vector<std::vector<core::ObjectRef>> ProvDb::OutputsMany(
    const std::vector<core::ObjectRef>& refs) const {
  std::vector<std::vector<core::ObjectRef>> out;
  out.reserve(refs.size());
  for (const core::ObjectRef& ref : refs) {
    out.push_back(Outputs(ref));
  }
  return out;
}

std::vector<std::vector<const core::Value*>> ProvDb::AttributeValuesMany(
    const std::vector<core::PnodeId>& pnodes, std::string_view attr) const {
  const AttrMatch match(attr);
  std::vector<std::vector<const core::Value*>> out(pnodes.size());
  for (size_t i = 0; i < pnodes.size(); ++i) {
    auto it = nodes_.find(pnodes[i]);
    if (it == nodes_.end()) {
      continue;
    }
    for (const VersionRows& rows : it->second.versions) {
      for (const core::Record& record : rows.attrs) {
        if (match.Answers(record)) {
          out[i].push_back(&record.value);
        }
      }
    }
  }
  return out;
}

std::vector<core::ObjectRef> ProvDb::LatestOfAll() const {
  std::vector<core::ObjectRef> out;
  out.reserve(nodes_.size());
  for (const auto& [pnode, node] : nodes_) {
    out.push_back({pnode, node.Latest()});
  }
  return out;
}

std::vector<core::ObjectRef> ProvDb::LatestOfType(std::string_view type) const {
  std::vector<core::ObjectRef> out;
  auto it = by_type_.find(std::string(type));
  if (it == by_type_.end()) {
    return out;
  }
  out.reserve(it->second.pnodes.size());
  // Members and nodes both ascend by pnode, so one forward pass over the
  // nodes meets every member's node; a gap of more than a few nodes is
  // crossed by search instead.
  auto node = nodes_.begin();
  for (core::PnodeId pnode : it->second.pnodes) {
    for (int step = 0; node != nodes_.end() && node->first < pnode; ++step) {
      node = step < 4 ? std::next(node) : nodes_.lower_bound(pnode);
    }
    bool found = node != nodes_.end() && node->first == pnode;
    out.push_back({pnode, found ? node->second.Latest() : 0});
  }
  return out;
}

std::vector<core::Version> ProvDb::VersionsOf(core::PnodeId pnode) const {
  std::vector<core::Version> out;
  auto it = nodes_.find(pnode);
  if (it == nodes_.end()) {
    return out;
  }
  out.reserve(it->second.versions.size());
  for (const VersionRows& rows : it->second.versions) {
    out.push_back(rows.version);
  }
  return out;
}

core::Version ProvDb::LatestVersionOf(core::PnodeId pnode) const {
  auto it = nodes_.find(pnode);
  return it == nodes_.end() ? 0 : it->second.Latest();
}

std::vector<core::PnodeId> ProvDb::PnodesByName(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return {};
  }
  const std::set<core::PnodeId>& pnodes = it->second.pnodes;
  return std::vector<core::PnodeId>(pnodes.begin(), pnodes.end());
}

std::vector<core::PnodeId> ProvDb::PnodesByType(std::string_view type) const {
  auto it = by_type_.find(std::string(type));
  if (it == by_type_.end()) {
    return {};
  }
  const std::set<core::PnodeId>& pnodes = it->second.pnodes;
  return std::vector<core::PnodeId>(pnodes.begin(), pnodes.end());
}

std::string ProvDb::NameOf(core::PnodeId pnode) const {
  auto it = nodes_.find(pnode);
  return it == nodes_.end() ? std::string() : it->second.name;
}

std::vector<core::PnodeId> ProvDb::AllPnodes() const {
  std::vector<core::PnodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [pnode, unused] : nodes_) {
    out.push_back(pnode);
  }
  return out;
}

std::vector<std::string> ProvDb::TypesOf(core::PnodeId pnode) const {
  // by_type_ holds a handful of types; membership per type is O(log n).
  std::vector<std::string> types;
  for (const auto& [type, members] : by_type_) {
    if (members.pnodes.count(pnode) != 0) {
      types.push_back(type);
    }
  }
  return types;
}

bool ProvDb::InsertUnique(const lasagna::LogEntry& entry) {
  return InsertMissing(entry, /*feed=*/true);
}

bool ProvDb::InsertCopy(const lasagna::LogEntry& entry) {
  return InsertMissing(entry, /*feed=*/false);
}

bool ProvDb::InsertMissing(const lasagna::LogEntry& entry, bool feed) {
  // The slots are taken before the check: a present row names only nodes
  // and versions that exist, so taking them creates nothing for a row that
  // is not written.
  const core::ObjectRef& subject = entry.subject;
  if (entry.record.attr == core::Attr::kInput) {
    const auto* ancestor = std::get_if<core::ObjectRef>(&entry.record.value);
    if (ancestor == nullptr) {
      return false;
    }
    auto [subject_slot, ancestor_slot] = EdgeSlots(subject, *ancestor);
    bool forward = !Contains(subject_slot.rows->inputs, *ancestor);
    bool reverse = !Contains(ancestor_slot.rows->outputs, subject);
    if (!forward && !reverse) {
      return false;
    }
    WriteEdge(subject_slot, ancestor_slot, subject, *ancestor, forward,
              reverse, feed);
    return true;
  }
  Slot slot = SlotOf(subject);
  if (Contains(slot.rows->attrs, entry.record)) {
    return false;
  }
  WriteAttr(slot, subject, entry.record, feed);
  return true;
}

std::vector<lasagna::LogEntry> ProvDb::EntriesInRange(core::PnodeId begin,
                                                      core::PnodeId end) const {
  // One pass per row kind, as the stores key them: attribute rows, then
  // forward rows, then reverse rows.
  std::vector<lasagna::LogEntry> out;
  const NodeRange nodes = NodesIn(begin, end);
  for (const auto& [pnode, node] : nodes) {
    for (const VersionRows& rows : node.versions) {
      for (const core::Record& record : rows.attrs) {
        out.push_back({{pnode, rows.version}, record});
      }
    }
  }
  for (const auto& [pnode, node] : nodes) {
    for (const VersionRows& rows : node.versions) {
      for (const core::ObjectRef& ancestor : rows.inputs) {
        out.push_back({{pnode, rows.version}, core::Record::Input(ancestor)});
      }
    }
  }
  // Reverse rows whose subject is also in range were already emitted as the
  // matching forward edge above (Insert recreates both rows from one entry).
  for (const auto& [pnode, node] : nodes) {
    for (const VersionRows& rows : node.versions) {
      for (const core::ObjectRef& subject : rows.outputs) {
        if (subject.pnode < begin || subject.pnode >= end) {
          out.push_back(
              {subject, core::Record::Input({pnode, rows.version})});
        }
      }
    }
  }
  return out;
}

Md5Digest ProvDb::ContentHashOfRange(core::PnodeId begin, core::PnodeId end,
                                     uint64_t* bytes_hashed) const {
  Md5Digest fold{};
  std::string payload;
  uint64_t bytes = 0;
  for (const lasagna::LogEntry& entry : EntriesInRange(begin, end)) {
    payload.clear();
    lasagna::EncodeLogEntryPayload(&payload, entry);
    bytes += payload.size();
    Md5Digest row = Md5::Hash(payload);
    for (size_t i = 0; i < fold.size(); ++i) {
      fold[i] ^= row[i];
    }
  }
  if (bytes_hashed != nullptr) {
    *bytes_hashed = bytes;
  }
  return fold;
}

uint64_t ProvDb::DeleteRange(core::PnodeId begin, core::PnodeId end) {
  if (end <= begin) {
    return 0;  // empty range; also keeps the end - 1 bounds below safe
  }
  uint64_t removed = 0;
  // Names/types referenced by in-range subjects: only their index keys can
  // need rewriting below.
  std::set<std::string> touched_names;
  std::set<std::string> touched_types;
  // One pass per key family, as EntriesInRange: every 'r/' key, then every
  // 'i/' key, then every 'o/' key. A store may compact on any Delete, so
  // this order fixes where it does. A key's values are the rows it keys.
  const NodeRange nodes = NodesIn(begin, end);
  for (const auto& [pnode, node] : nodes) {
    for (const VersionRows& rows : node.versions) {
      uint64_t value_bytes = 0;
      for (const core::Record& record : rows.attrs) {
        value_bytes += core::EncodedSize(record);
        if (const auto* text = std::get_if<std::string>(&record.value)) {
          if (record.attr == core::Attr::kName) {
            touched_names.insert(*text);
          } else if (record.attr == core::Attr::kType) {
            touched_types.insert(*text);
          }
        }
      }
      records_.Delete(kRefKeyBytes, rows.attrs.size(), value_bytes);
      removed += rows.attrs.size();
      record_count_ -= rows.attrs.size();
    }
  }
  auto delete_refs = [&](size_t refs) {
    indexes_.Delete(kRefKeyBytes, refs, refs * kRefBytes);
    removed += refs;
  };
  // edge_count_ tracks forward rows only; the paired reverse row of a fully
  // in-range edge goes in the reverse pass without further decrement.
  for (const auto& [pnode, node] : nodes) {
    for (const VersionRows& rows : node.versions) {
      delete_refs(rows.inputs.size());
      edge_count_ -= rows.inputs.size();
    }
  }
  for (const auto& [pnode, node] : nodes) {
    for (const VersionRows& rows : node.versions) {
      delete_refs(rows.outputs.size());
    }
  }
  // Erasing the range's nodes forgets their stamps, so a removed pnode's
  // stamp reads 0 again.
  nodes_.erase(nodes.begin(), nodes.end());

  // Secondary name/type indexes: drop in-range pnodes from the touched keys
  // and rewrite each such key with one value per surviving pnode.
  auto prune = [&](std::map<std::string, Members>& index,
                   const std::set<std::string>& touched) {
    for (const std::string& text : touched) {
      auto it = index.find(text);
      if (it == index.end()) {
        continue;
      }
      Members& members = it->second;
      std::set<core::PnodeId>& pnodes = members.pnodes;
      pnodes.erase(pnodes.lower_bound(begin), pnodes.upper_bound(end - 1));
      uint64_t key_bytes = TextKeyBytes(text);
      indexes_.Delete(key_bytes, members.values, members.values * kRefBytes);
      members.values = pnodes.size();
      for (size_t i = 0; i < pnodes.size(); ++i) {
        indexes_.Put(key_bytes, kRefBytes);
      }
      if (pnodes.empty()) {
        index.erase(it);
      }
    }
  };
  prune(by_name_, touched_names);
  prune(by_type_, touched_types);
  if (removed > 0) {
    ++stamp_;
  }
  return removed;
}

uint64_t ProvDb::RowsInRange(core::PnodeId begin, core::PnodeId end) const {
  uint64_t rows = 0;
  for (const auto& [pnode, weight] : PnodeRowsInRange(begin, end)) {
    rows += weight;
  }
  return rows;
}

std::vector<std::pair<core::PnodeId, uint64_t>> ProvDb::PnodeRowsInRange(
    core::PnodeId begin, core::PnodeId end) const {
  std::vector<std::pair<core::PnodeId, uint64_t>> weights;
  for (const auto& [pnode, node] : NodesIn(begin, end)) {
    uint64_t weight = 0;  // stays 0 when the pnode is no row's subject
    for (const VersionRows& rows : node.versions) {
      weight += rows.attrs.size() + rows.inputs.size();
    }
    weights.emplace_back(pnode, weight);
  }
  return weights;
}

ProvDbStats ProvDb::stats() const {
  ProvDbStats stats;
  stats.records = record_count_;
  stats.edges = edge_count_;
  stats.objects = nodes_.size();
  stats.db_bytes = records_.bytes();
  stats.index_bytes = indexes_.bytes();
  return stats;
}

}  // namespace pass::waldo
