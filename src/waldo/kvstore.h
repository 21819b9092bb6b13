#ifndef SRC_WALDO_KVSTORE_H_
#define SRC_WALDO_KVSTORE_H_

// The size of one key/value store under Waldo's provenance database, the
// figure Table 3 reports (the paper's store was Berkeley DB; the model is
// a small log-structured equivalent). No store bytes are kept: ProvDb's
// node table holds every row, and this model counts what a segment log of
// those rows would occupy. Keys may repeat: a key holds every value put
// since its last Delete.
//
// Every write appends one frame: a u32 payload length and a u32 CRC-32,
// then the payload (a u8 tombstone flag, then the key and the value, each
// behind a u32 length). So a put adds key + value + 17 bytes, of which the
// payload, key + value + 9, counts as live. Deleting a key that holds
// values moves their payloads from live to dead and appends a key + 17
// byte tombstone; deleting a key that holds none writes nothing. After a
// tombstone the log compacts once dead bytes exceed half of it: it keeps
// only the live entries' frames, the live payloads plus 8 bytes each.

#include <cstdint>

namespace pass::waldo {

class KvStoreSize {
 public:
  // A value of `value_bytes` put under a key of `key_bytes`.
  void Put(uint64_t key_bytes, uint64_t value_bytes) {
    uint64_t payload = key_bytes + value_bytes + kPayloadBytes;
    bytes_ += kHeaderBytes + payload;
    live_bytes_ += payload;
    ++live_entries_;
  }

  // Delete a key of `key_bytes` that holds `values` values, `value_bytes`
  // in all.
  void Delete(uint64_t key_bytes, uint64_t values, uint64_t value_bytes) {
    if (values == 0) {
      return;
    }
    uint64_t payloads = values * (key_bytes + kPayloadBytes) + value_bytes;
    live_bytes_ -= payloads;
    dead_bytes_ += payloads;
    live_entries_ -= values;
    bytes_ += kHeaderBytes + key_bytes + kPayloadBytes;
    if (2 * dead_bytes_ > bytes_) {
      bytes_ = live_bytes_ + kHeaderBytes * live_entries_;
      dead_bytes_ = 0;
    }
  }

  // The log's bytes: every frame written since the last compaction.
  uint64_t bytes() const { return bytes_; }

 private:
  static constexpr uint64_t kHeaderBytes = 4 + 4;       // length, CRC
  static constexpr uint64_t kPayloadBytes = 1 + 4 + 4;  // flag, lengths

  uint64_t bytes_ = 0;
  uint64_t live_bytes_ = 0;  // live entries' payloads
  uint64_t dead_bytes_ = 0;  // dead entries' payloads
  uint64_t live_entries_ = 0;
};

}  // namespace pass::waldo

#endif  // SRC_WALDO_KVSTORE_H_
