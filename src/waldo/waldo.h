#ifndef SRC_WALDO_WALDO_H_
#define SRC_WALDO_WALDO_H_

// Waldo: the user-level daemon that moves provenance from the Lasagna log
// into the database and serves it to the query engine (§5.6). The paper's
// Waldo watches log rotation through inotify; here the simulation calls
// Poll() periodically, which is the same event model.
//
// Waldo runs off the workload's critical path: log *writes* are charged to
// the workload (they share the disk), but database ingestion happens in the
// background, so Poll() does not advance the simulated clock.

#include <string>
#include <vector>

#include "src/lasagna/lasagna.h"
#include "src/waldo/provdb.h"

namespace pass::waldo {

struct WaldoStats {
  uint64_t logs_processed = 0;
  uint64_t entries_ingested = 0;
  uint64_t orphans_discarded = 0;
  uint64_t truncated_logs = 0;
};

class Waldo {
 public:
  explicit Waldo(ProvDb* db) : db_(db) {}

  // Watch a volume's log directory (a Waldo instance can serve several
  // volumes on one machine).
  void AddVolume(lasagna::LasagnaFs* volume) { volumes_.push_back(volume); }

  // Process every closed log on every volume (the inotify wake-up).
  Status Poll();

  // Force-rotate the active logs and ingest everything (end of benchmark /
  // clean shutdown).
  Status Drain();

  ProvDb* db() { return db_; }
  const WaldoStats& stats() const { return waldo_stats_; }

 private:
  Status ProcessLog(lasagna::LasagnaFs* volume, const std::string& path);

  ProvDb* db_;
  std::vector<lasagna::LasagnaFs*> volumes_;
  WaldoStats waldo_stats_;
};

}  // namespace pass::waldo

#endif  // SRC_WALDO_WALDO_H_
