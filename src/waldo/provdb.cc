#include "src/waldo/provdb.h"

#include <algorithm>
#include <cstdlib>

#include "src/util/md5.h"
#include "src/util/strings.h"

namespace pass::waldo {
namespace {

std::string RefKey(char prefix, const core::ObjectRef& ref) {
  return StrFormat("%c/%016llx/%08x", prefix,
                   static_cast<unsigned long long>(ref.pnode), ref.version);
}

std::string EncodeRef(const core::ObjectRef& ref) {
  std::string out;
  core::EncodeObjectRef(&out, ref);
  return out;
}

}  // namespace

void ProvDb::Insert(const lasagna::LogEntry& entry) {
  const core::ObjectRef& subject = entry.subject;
  const core::Record& record = entry.record;

  if (record.attr == core::Attr::kInput) {
    if (const auto* ancestor = std::get_if<core::ObjectRef>(&record.value)) {
      WriteEdge(subject, *ancestor, /*forward=*/true, /*reverse=*/true);
    } else {
      versions_[subject.pnode].insert(subject.version);  // no edge to store
    }
    return;
  }

  // Attribute record.
  ++range_mutations_[RangeBucketOf(subject.pnode)];
  std::string encoded;
  core::EncodeRecord(&encoded, record);
  records_.Put(RefKey('r', subject), encoded);
  if (const auto* text = std::get_if<std::string>(&record.value)) {
    if (record.attr == core::Attr::kName) {
      indexes_.Put("n/" + *text, EncodeRef(subject));
    } else if (record.attr == core::Attr::kType) {
      indexes_.Put("t/" + *text, EncodeRef(subject));
    }
  }
  MirrorAttr(subject, record);
}

void ProvDb::WriteEdge(const core::ObjectRef& subject,
                       const core::ObjectRef& ancestor, bool forward,
                       bool reverse) {
  if (forward) {
    ++range_mutations_[RangeBucketOf(subject.pnode)];
    indexes_.Put(RefKey('i', subject), EncodeRef(ancestor));
  }
  if (reverse) {
    ++range_mutations_[RangeBucketOf(ancestor.pnode)];
    indexes_.Put(RefKey('o', ancestor), EncodeRef(subject));
  }
  MirrorEdge(subject, ancestor, forward, reverse);
}

void ProvDb::MirrorAttr(const core::ObjectRef& subject, core::Record record) {
  versions_[subject.pnode].insert(subject.version);
  if (const auto* text = std::get_if<std::string>(&record.value)) {
    if (record.attr == core::Attr::kName) {
      by_name_[*text].insert(subject.pnode);
      names_[subject.pnode] = *text;
    } else if (record.attr == core::Attr::kType) {
      by_type_[*text].insert(subject.pnode);
    }
  }
  attrs_[subject].push_back(std::move(record));
  ++record_count_;
}

void ProvDb::MirrorEdge(const core::ObjectRef& subject,
                        const core::ObjectRef& ancestor, bool forward,
                        bool reverse) {
  versions_[subject.pnode].insert(subject.version);
  versions_[ancestor.pnode].insert(ancestor.version);
  if (forward) {
    inputs_[subject].push_back(ancestor);
    ++edge_count_;  // edge_count_ counts forward rows
  }
  if (reverse) {
    outputs_[ancestor].push_back(subject);
  }
}

std::vector<core::Record> ProvDb::RecordsOf(const core::ObjectRef& ref) const {
  auto it = attrs_.find(ref);
  return it == attrs_.end() ? std::vector<core::Record>() : it->second;
}

std::vector<core::Record> ProvDb::RecordsOfAllVersions(
    core::PnodeId pnode) const {
  std::vector<core::Record> out;
  for (core::Version version : VersionsOf(pnode)) {
    auto records = RecordsOf(core::ObjectRef{pnode, version});
    out.insert(out.end(), records.begin(), records.end());
  }
  return out;
}

std::vector<core::ObjectRef> ProvDb::Inputs(const core::ObjectRef& ref) const {
  auto it = inputs_.find(ref);
  return it == inputs_.end() ? std::vector<core::ObjectRef>() : it->second;
}

std::vector<core::ObjectRef> ProvDb::Outputs(
    const core::ObjectRef& ref) const {
  auto it = outputs_.find(ref);
  return it == outputs_.end() ? std::vector<core::ObjectRef>() : it->second;
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

std::vector<std::vector<core::Record>> ProvDb::RecordsOfAllVersionsMany(
    const std::vector<core::PnodeId>& pnodes) const {
  std::vector<std::vector<core::Record>> out;
  out.reserve(pnodes.size());
  for (core::PnodeId pnode : pnodes) {
    out.push_back(RecordsOfAllVersions(pnode));
  }
  return out;
}

std::vector<core::Version> ProvDb::VersionsOf(core::PnodeId pnode) const {
  auto it = versions_.find(pnode);
  if (it == versions_.end()) {
    return {};
  }
  return std::vector<core::Version>(it->second.begin(), it->second.end());
}

core::Version ProvDb::LatestVersionOf(core::PnodeId pnode) const {
  auto it = versions_.find(pnode);
  if (it == versions_.end() || it->second.empty()) {
    return 0;
  }
  return *it->second.rbegin();
}

std::vector<core::PnodeId> ProvDb::PnodesByName(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return {};
  }
  return std::vector<core::PnodeId>(it->second.begin(), it->second.end());
}

std::vector<core::PnodeId> ProvDb::PnodesByType(std::string_view type) const {
  auto it = by_type_.find(std::string(type));
  if (it == by_type_.end()) {
    return {};
  }
  return std::vector<core::PnodeId>(it->second.begin(), it->second.end());
}

std::string ProvDb::NameOf(core::PnodeId pnode) const {
  auto it = names_.find(pnode);
  return it == names_.end() ? std::string() : it->second;
}

std::vector<core::PnodeId> ProvDb::AllPnodes() const {
  std::vector<core::PnodeId> out;
  out.reserve(versions_.size());
  for (const auto& [pnode, unused] : versions_) {
    out.push_back(pnode);
  }
  return out;
}

std::vector<core::PnodeId> ProvDb::PnodesInRange(core::PnodeId begin,
                                                 core::PnodeId end) const {
  std::vector<core::PnodeId> out;
  for (auto it = versions_.lower_bound(begin);
       it != versions_.end() && it->first < end; ++it) {
    out.push_back(it->first);
  }
  return out;
}

std::string ProvDb::TypeOf(core::PnodeId pnode) const {
  // by_type_ holds a handful of types; membership per type is O(log n).
  for (const auto& [type, members] : by_type_) {
    if (members.count(pnode) != 0) {
      return type;
    }
  }
  return std::string();
}

namespace {

// Whether the mirror row vector of `key` holds `value`.
template <typename Map, typename Key, typename Value>
bool RowContains(const Map& map, const Key& key, const Value& value) {
  auto it = map.find(key);
  return it != map.end() &&
         std::find(it->second.begin(), it->second.end(), value) !=
             it->second.end();
}

}  // namespace

bool ProvDb::InsertUnique(const lasagna::LogEntry& entry) {
  const core::ObjectRef& subject = entry.subject;
  if (entry.record.attr == core::Attr::kInput) {
    const auto* ancestor = std::get_if<core::ObjectRef>(&entry.record.value);
    if (ancestor == nullptr) {
      return false;
    }
    bool forward = !RowContains(inputs_, subject, *ancestor);
    bool reverse = !RowContains(outputs_, *ancestor, subject);
    if (!forward && !reverse) {
      return false;
    }
    WriteEdge(subject, *ancestor, forward, reverse);
    return true;
  }
  if (RowContains(attrs_, subject, entry.record)) {
    return false;
  }
  Insert(entry);
  return true;
}

std::vector<lasagna::LogEntry> ProvDb::EntriesInRange(core::PnodeId begin,
                                                      core::PnodeId end) const {
  std::vector<lasagna::LogEntry> out;
  const core::ObjectRef lo{begin, 0};
  for (auto it = attrs_.lower_bound(lo);
       it != attrs_.end() && it->first.pnode < end; ++it) {
    for (const core::Record& record : it->second) {
      out.push_back({it->first, record});
    }
  }
  for (auto it = inputs_.lower_bound(lo);
       it != inputs_.end() && it->first.pnode < end; ++it) {
    for (const core::ObjectRef& ancestor : it->second) {
      out.push_back({it->first, core::Record::Input(ancestor)});
    }
  }
  // Reverse rows whose subject is also in range were already emitted as the
  // matching forward edge above (Insert recreates both rows from one entry).
  for (auto it = outputs_.lower_bound(lo);
       it != outputs_.end() && it->first.pnode < end; ++it) {
    for (const core::ObjectRef& subject : it->second) {
      if (subject.pnode < begin || subject.pnode >= end) {
        out.push_back({subject, core::Record::Input(it->first)});
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
  const core::ObjectRef lo{begin, 0};
  // Names/types referenced by in-range subjects: only their index keys can
  // need rewriting below.
  std::set<std::string> touched_names;
  std::set<std::string> touched_types;
  // Buckets whose keyed rows this delete removes; bumped once each below so
  // per-range fingerprints move only where rows actually vanished.
  std::set<uint64_t> touched_buckets;
  for (auto it = attrs_.lower_bound(lo);
       it != attrs_.end() && it->first.pnode < end;) {
    for (const core::Record& record : it->second) {
      if (const auto* text = std::get_if<std::string>(&record.value)) {
        if (record.attr == core::Attr::kName) {
          touched_names.insert(*text);
        } else if (record.attr == core::Attr::kType) {
          touched_types.insert(*text);
        }
      }
    }
    records_.Delete(RefKey('r', it->first));
    removed += it->second.size();
    record_count_ -= it->second.size();
    touched_buckets.insert(RangeBucketOf(it->first.pnode));
    it = attrs_.erase(it);
  }
  // edge_count_ tracks forward rows only; the paired reverse row of a fully
  // in-range edge goes in the outputs loop without further decrement.
  for (auto it = inputs_.lower_bound(lo);
       it != inputs_.end() && it->first.pnode < end;) {
    indexes_.Delete(RefKey('i', it->first));
    removed += it->second.size();
    edge_count_ -= it->second.size();
    touched_buckets.insert(RangeBucketOf(it->first.pnode));
    it = inputs_.erase(it);
  }
  for (auto it = outputs_.lower_bound(lo);
       it != outputs_.end() && it->first.pnode < end;) {
    indexes_.Delete(RefKey('o', it->first));
    removed += it->second.size();
    touched_buckets.insert(RangeBucketOf(it->first.pnode));
    it = outputs_.erase(it);
  }
  versions_.erase(versions_.lower_bound(begin), versions_.upper_bound(end - 1));
  names_.erase(names_.lower_bound(begin), names_.upper_bound(end - 1));

  // Secondary name/type indexes: drop in-range pnodes from the touched keys
  // and rewrite those keys so surviving pnodes stay accounted in the store.
  auto prune = [&](std::map<std::string, std::set<core::PnodeId>>& index,
                   char prefix, const std::set<std::string>& touched) {
    for (const std::string& name : touched) {
      auto it = index.find(name);
      if (it == index.end()) {
        continue;
      }
      std::set<core::PnodeId>& pnodes = it->second;
      pnodes.erase(pnodes.lower_bound(begin), pnodes.upper_bound(end - 1));
      std::string key = StrFormat("%c/%s", prefix, name.c_str());
      indexes_.Delete(key);
      for (core::PnodeId pnode : pnodes) {
        indexes_.Put(key, EncodeRef({pnode, LatestVersionOf(pnode)}));
      }
      if (pnodes.empty()) {
        index.erase(it);
      }
    }
  };
  prune(by_name_, 'n', touched_names);
  prune(by_type_, 't', touched_types);
  if (removed > 0) {
    for (uint64_t bucket : touched_buckets) {
      ++range_mutations_[bucket];
    }
  }
  return removed;
}

uint64_t ProvDb::RowsInRange(core::PnodeId begin, core::PnodeId end) const {
  uint64_t rows = 0;
  const core::ObjectRef lo{begin, 0};
  for (auto it = attrs_.lower_bound(lo);
       it != attrs_.end() && it->first.pnode < end; ++it) {
    rows += it->second.size();
  }
  for (auto it = inputs_.lower_bound(lo);
       it != inputs_.end() && it->first.pnode < end; ++it) {
    rows += it->second.size();
  }
  return rows;
}

std::vector<std::pair<core::PnodeId, uint64_t>> ProvDb::PnodeRowsInRange(
    core::PnodeId begin, core::PnodeId end) const {
  std::map<core::PnodeId, uint64_t> weights;
  for (auto it = versions_.lower_bound(begin);
       it != versions_.end() && it->first < end; ++it) {
    weights[it->first];  // present even when the pnode has no subject rows
  }
  const core::ObjectRef lo{begin, 0};
  for (auto it = attrs_.lower_bound(lo);
       it != attrs_.end() && it->first.pnode < end; ++it) {
    weights[it->first.pnode] += it->second.size();
  }
  for (auto it = inputs_.lower_bound(lo);
       it != inputs_.end() && it->first.pnode < end; ++it) {
    weights[it->first.pnode] += it->second.size();
  }
  return std::vector<std::pair<core::PnodeId, uint64_t>>(weights.begin(),
                                                         weights.end());
}

namespace {

// Parse "<prefix>/<%016llx pnode>/<%08x version>" back into a ref.
Result<core::ObjectRef> ParseRefKey(std::string_view key) {
  if (key.size() != 2 + 16 + 1 + 8 || key[1] != '/' || key[18] != '/') {
    return Corrupt("provdb: malformed ref key");
  }
  core::ObjectRef ref;
  ref.pnode = std::strtoull(std::string(key.substr(2, 16)).c_str(), nullptr, 16);
  ref.version = static_cast<core::Version>(
      std::strtoul(std::string(key.substr(19, 8)).c_str(), nullptr, 16));
  return ref;
}

}  // namespace

std::string ProvDb::Serialize() const {
  std::string out;
  PutBytes(&out, records_.Serialize());
  PutBytes(&out, indexes_.Serialize());
  return out;
}

Result<ProvDb> ProvDb::Deserialize(std::string_view image) {
  Decoder in(image);
  PASS_ASSIGN_OR_RETURN(std::string records_image, in.Bytes());
  PASS_ASSIGN_OR_RETURN(std::string indexes_image, in.Bytes());
  if (!in.done()) {
    return Corrupt("provdb: trailing bytes after store images");
  }
  PASS_ASSIGN_OR_RETURN(KvStore records, KvStore::Deserialize(records_image));
  PASS_ASSIGN_OR_RETURN(KvStore indexes, KvStore::Deserialize(indexes_image));

  ProvDb db;
  db.records_ = std::move(records);
  db.indexes_ = std::move(indexes);

  // Rebuild the mirrors through the row kinds' mirror paths. The records
  // store carries every attribute record, the 'i/' keys every forward row
  // and the 'o/' keys every reverse row; 'n/' and 't/' are derived. Reverse
  // rows come solely from 'o/' keys, never from 'i/': range deletion and
  // half-row insertion keep the two key families independently exact, so an
  // edge half dropped by DeleteRange (its twin keyed outside the range)
  // stays dropped across a round trip.
  Status failure = Status::Ok();
  // Hands each row under `prefix` to `row` as its parsed key ref and a
  // decoder over its value; the first failure stops the rebuild.
  auto replay = [&](const KvStore& store, std::string_view prefix,
                    const auto& row) {
    store.Scan(prefix, [&](std::string_view key, std::string_view value) {
      if (!failure.ok()) {
        return;
      }
      auto ref = ParseRefKey(key);
      if (!ref.ok()) {
        failure = ref.status();
        return;
      }
      Decoder body(value);
      failure = row(*ref, &body);
    });
  };
  replay(db.records_, "r/", [&](const core::ObjectRef& subject, Decoder* body) {
    PASS_ASSIGN_OR_RETURN(core::Record record, core::DecodeRecord(body));
    db.MirrorAttr(subject, std::move(record));
    return Status::Ok();
  });
  replay(db.indexes_, "i/", [&](const core::ObjectRef& subject, Decoder* body) {
    PASS_ASSIGN_OR_RETURN(core::ObjectRef ancestor,
                          core::DecodeObjectRef(body));
    db.MirrorEdge(subject, ancestor, /*forward=*/true, /*reverse=*/false);
    return Status::Ok();
  });
  replay(db.indexes_, "o/", [&](const core::ObjectRef& ancestor, Decoder* body) {
    PASS_ASSIGN_OR_RETURN(core::ObjectRef subject,
                          core::DecodeObjectRef(body));
    db.MirrorEdge(subject, ancestor, /*forward=*/false, /*reverse=*/true);
    return Status::Ok();
  });
  if (!failure.ok()) {
    return failure;
  }
  return db;
}

ProvDbStats ProvDb::stats() const {
  ProvDbStats stats;
  stats.records = record_count_;
  stats.edges = edge_count_;
  stats.objects = versions_.size();
  stats.db_bytes = records_.stats().bytes;
  stats.index_bytes = indexes_.stats().bytes;
  return stats;
}

}  // namespace pass::waldo
