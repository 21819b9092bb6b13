#include "src/waldo/waldo.h"

#include <map>

#include "src/util/logging.h"

namespace pass::waldo {

Status Waldo::Poll() {
  for (lasagna::LasagnaFs* volume : volumes_) {
    volume->MaybeRotateDormant();
    for (const std::string& path : volume->ClosedLogPaths()) {
      PASS_RETURN_IF_ERROR(ProcessLog(volume, path));
      PASS_RETURN_IF_ERROR(volume->RemoveLog(path));
    }
  }
  return Status::Ok();
}

Status Waldo::Drain() {
  for (lasagna::LasagnaFs* volume : volumes_) {
    PASS_RETURN_IF_ERROR(volume->ForceRotate());
  }
  return Poll();
}

Status Waldo::ProcessLog(lasagna::LasagnaFs* volume, const std::string& path) {
  PASS_ASSIGN_OR_RETURN(std::string image, volume->lower()->ReadFileRaw(path));
  bool truncated = false;
  PASS_ASSIGN_OR_RETURN(std::vector<lasagna::LogEntry> entries,
                        lasagna::ParseLog(image, &truncated));
  if (truncated) {
    ++waldo_stats_.truncated_logs;
  }
  // Ingest only complete transactions; a BEGINTXN without its ENDTXN is
  // orphaned provenance (e.g. a crashed NFS client) and is discarded.
  std::map<uint64_t, std::vector<lasagna::LogEntry>> open;
  // Records after a BEGINTXN that carries no transaction id: no ENDTXN can
  // name that transaction, so they are orphans as well.
  std::vector<lasagna::LogEntry> unnamed;
  uint64_t unnamed_begins = 0;
  std::vector<lasagna::LogEntry>* current = nullptr;  // the open txn's records
  for (lasagna::LogEntry& entry : entries) {
    if (entry.record.attr == core::Attr::kBeginTxn) {
      if (const int64_t* txn = std::get_if<int64_t>(&entry.record.value)) {
        current = &(open[static_cast<uint64_t>(*txn)] = {});
      } else {
        current = &unnamed;
        ++unnamed_begins;
      }
      continue;
    }
    if (entry.record.attr == core::Attr::kEndTxn) {
      const std::string* blob = std::get_if<std::string>(&entry.record.value);
      if (blob == nullptr) {
        continue;
      }
      auto descriptor = lasagna::DecodeTxnDescriptor(*blob);
      if (!descriptor.ok()) {
        continue;
      }
      auto it = open.find(descriptor->txn_id);
      if (it == open.end()) {
        continue;
      }
      for (lasagna::LogEntry& committed : it->second) {
        db_->Insert(committed);
        ++waldo_stats_.entries_ingested;
      }
      open.erase(it);
      current = nullptr;
      continue;
    }
    if (current != nullptr) {
      current->push_back(std::move(entry));
    } else {
      // Record outside any transaction: ingest directly (legacy form).
      db_->Insert(entry);
      ++waldo_stats_.entries_ingested;
    }
  }
  for (auto& [txn, orphaned] : open) {
    waldo_stats_.orphans_discarded += orphaned.size() + 1;
  }
  waldo_stats_.orphans_discarded += unnamed.size() + unnamed_begins;
  ++waldo_stats_.logs_processed;
  return Status::Ok();
}

}  // namespace pass::waldo
