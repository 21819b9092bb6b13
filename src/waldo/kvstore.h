#ifndef SRC_WALDO_KVSTORE_H_
#define SRC_WALDO_KVSTORE_H_

// Append-only key/value segment store — the storage engine under Waldo's
// provenance database (the paper used Berkeley DB; this is a small
// log-structured equivalent). Keys may repeat: a key holds every value put
// since its last Delete, in insertion order. Put and Delete build each frame
// in place at the end of the last segment and patch its CRC in once the
// payload is there, so a frame's bytes are written once, with no temporary
// copy of the frame. In memory the store keeps its segments plus the
// live-key index: per live key, the entry count and byte total that Delete
// moves to the dead tail. Put finds a key's entry before allocating a copy
// of the key, which only a new key needs.
// Scan and Compact replay the segments, so the store is no fast read path
// (ProvDb's node table is); a bad frame there is a broken invariant and
// aborts, while Deserialize, which reads an image from outside the process,
// returns Corrupt. Space accounting (Table 3) is the total size of the
// segment bytes, which is exactly what the serialized database would occupy
// on disk.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/result.h"

namespace pass::waldo {

struct KvStats {
  uint64_t entries = 0;       // live entries
  uint64_t tombstones = 0;
  uint64_t segments = 0;
  uint64_t bytes = 0;          // total segment bytes (live + dead)
  uint64_t live_bytes = 0;     // bytes attributable to live entries
  uint64_t compactions = 0;
};

class KvStore {
 public:
  // `auto_compact`: rewrite segments automatically once dead bytes exceed
  // half of the total segment bytes (heavy Delete churn would otherwise let
  // the dead tail of the log grow without bound).
  explicit KvStore(uint64_t segment_bytes = 4u << 20, bool auto_compact = true)
      : segment_bytes_(segment_bytes), auto_compact_(auto_compact) {
    segments_.emplace_back();
  }

  // Append a value under `key` (keys are multi-valued).
  void Put(std::string_view key, std::string_view value);

  // Remove all values for `key` (tombstone; space reclaimed by Compact).
  void Delete(std::string_view key);

  // Visit every live (key, value) whose key starts with `prefix`, in key
  // order and, within a key, in insertion order. The views borrow the
  // segments, so `fn` must not modify this store.
  void Scan(std::string_view prefix,
            const std::function<void(std::string_view key,
                                     std::string_view value)>& fn) const;

  // Rewrite segments dropping dead entries: the live entries in key order,
  // each key's values in insertion order. Returns bytes reclaimed.
  uint64_t Compact();

  // Serialize the whole store (segment stream) / rebuild from it. Used to
  // prove the store is genuinely recoverable, and by tests.
  std::string Serialize() const;
  static Result<KvStore> Deserialize(std::string_view image);

  KvStats stats() const;

 private:
  void AppendEntry(std::string_view key, std::string_view value,
                   bool tombstone);
  void MaybeAutoCompact();
  uint64_t TotalSegmentBytes() const;

  uint64_t segment_bytes_;
  bool auto_compact_ = true;
  std::vector<std::string> segments_;
  // The live-key index. Per live key: how many entries it holds and their
  // byte total.
  struct LiveKey {
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };
  std::map<std::string, LiveKey, std::less<>> live_;
  uint64_t live_bytes_ = 0;
  uint64_t dead_bytes_ = 0;
  uint64_t entries_ = 0;
  uint64_t tombstones_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace pass::waldo

#endif  // SRC_WALDO_KVSTORE_H_
