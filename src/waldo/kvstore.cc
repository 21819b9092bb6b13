#include "src/waldo/kvstore.h"

#include "src/util/crc32.h"
#include "src/util/encode.h"
#include "src/util/logging.h"

namespace pass::waldo {
namespace {

// One segment frame: u32 payload length, u32 CRC-32 of the payload, then
// the payload (u8 tombstone flag, length-prefixed key, length-prefixed
// value). The views borrow the decoder's input.
struct Frame {
  bool tombstone = false;
  std::string_view key;
  std::string_view value;
};

Result<std::string_view> LengthPrefixed(Decoder* in) {
  PASS_ASSIGN_OR_RETURN(uint32_t len, in->U32());
  return in->Raw(len);
}

Result<Frame> ReadFrame(Decoder* in) {
  PASS_ASSIGN_OR_RETURN(uint32_t len, in->U32());
  PASS_ASSIGN_OR_RETURN(uint32_t crc, in->U32());
  PASS_ASSIGN_OR_RETURN(std::string_view payload, in->Raw(len));
  if (Crc32(payload) != crc) {
    return Corrupt("kvstore: CRC mismatch");
  }
  Decoder body(payload);
  Frame frame;
  PASS_ASSIGN_OR_RETURN(uint8_t tombstone, body.U8());
  frame.tombstone = tombstone != 0;
  PASS_ASSIGN_OR_RETURN(frame.key, LengthPrefixed(&body));
  PASS_ASSIGN_OR_RETURN(frame.value, LengthPrefixed(&body));
  return frame;
}

}  // namespace

void KvStore::AppendEntry(std::string_view key, std::string_view value,
                          bool tombstone) {
  std::string payload;
  PutU8(&payload, tombstone ? 1 : 0);
  PutBytes(&payload, key);
  PutBytes(&payload, value);
  std::string frame;
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload));
  frame.append(payload);

  if (segments_.back().size() + frame.size() > segment_bytes_ &&
      !segments_.back().empty()) {
    segments_.emplace_back();
  }
  segments_.back().append(frame);
}

void KvStore::Put(std::string_view key, std::string_view value) {
  AppendEntry(key, value, /*tombstone=*/false);
  uint64_t bytes = key.size() + value.size() + 9;
  LiveKey& live = live_[std::string(key)];
  ++live.entries;
  live.bytes += bytes;
  live_bytes_ += bytes;
  ++entries_;
}

void KvStore::Delete(std::string_view key) {
  auto it = live_.find(key);
  if (it == live_.end()) {
    return;
  }
  dead_bytes_ += it->second.bytes;
  live_bytes_ -= it->second.bytes;
  entries_ -= it->second.entries;
  live_.erase(it);
  AppendEntry(key, "", /*tombstone=*/true);
  ++tombstones_;
  MaybeAutoCompact();
}

uint64_t KvStore::TotalSegmentBytes() const {
  uint64_t total = 0;
  for (const std::string& segment : segments_) {
    total += segment.size();
  }
  return total;
}

void KvStore::MaybeAutoCompact() {
  if (!auto_compact_ || dead_bytes_ == 0) {
    return;
  }
  if (dead_bytes_ * 2 > TotalSegmentBytes()) {
    Compact();
  }
}

void KvStore::Scan(std::string_view prefix,
                   const std::function<void(std::string_view,
                                            std::string_view)>& fn) const {
  // Replay the segments this store wrote: a key's live values are the ones
  // put since its last tombstone. The views borrow segments_.
  std::map<std::string_view, std::vector<std::string_view>> live;
  for (const std::string& segment : segments_) {
    Decoder in(segment);
    while (!in.done()) {
      auto frame = ReadFrame(&in);
      PASS_CHECK(frame.ok());
      if (!frame->key.starts_with(prefix)) {
        continue;
      }
      if (frame->tombstone) {
        live.erase(frame->key);
      } else {
        live[frame->key].push_back(frame->value);
      }
    }
  }
  for (const auto& [key, values] : live) {
    for (std::string_view value : values) {
      fn(key, value);
    }
  }
}

uint64_t KvStore::Compact() {
  KvStore fresh(segment_bytes_, auto_compact_);
  Scan("", [&](std::string_view key, std::string_view value) {
    fresh.Put(key, value);
  });
  // The rewrite keeps a subset of the old frames, so it never grows.
  uint64_t reclaimed = TotalSegmentBytes() - fresh.TotalSegmentBytes();
  fresh.compactions_ = compactions_ + 1;
  *this = std::move(fresh);
  return reclaimed;
}

std::string KvStore::Serialize() const {
  std::string out;
  for (const std::string& segment : segments_) {
    out.append(segment);
  }
  return out;
}

Result<KvStore> KvStore::Deserialize(std::string_view image) {
  KvStore store;
  // Replay with auto-compaction off so the restored segment layout is
  // byte-faithful to the serialized one; re-enable once rebuilt.
  store.auto_compact_ = false;
  Decoder in(image);
  while (!in.done()) {
    PASS_ASSIGN_OR_RETURN(Frame frame, ReadFrame(&in));
    if (frame.tombstone) {
      store.Delete(frame.key);
    } else {
      store.Put(frame.key, frame.value);
    }
  }
  store.auto_compact_ = true;
  return store;
}

KvStats KvStore::stats() const {
  KvStats stats;
  stats.entries = entries_;
  stats.tombstones = tombstones_;
  stats.segments = segments_.size();
  stats.bytes = TotalSegmentBytes();
  stats.live_bytes = live_bytes_;
  stats.compactions = compactions_;
  return stats;
}

}  // namespace pass::waldo
