#include "src/lasagna/recovery.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/util/md5.h"
#include "src/util/strings.h"

namespace pass::lasagna {
namespace {

struct OpenTxn {
  std::vector<LogEntry> entries;  // including BEGINTXN
};

// A complete data transaction whose extent has not been superseded by a
// later overlapping write: still individually verifiable at recovery.
struct PendingWrite {
  TxnDescriptor descriptor;
  std::vector<LogEntry> entries;
};

// a.offset < b.offset + b.length, without forming the sum: a descriptor
// from the log can carry any offset and length, and the sum can wrap.
bool StartsBeforeEnd(const TxnDescriptor& a, const TxnDescriptor& b) {
  return a.offset < b.offset || a.offset - b.offset < b.length;
}

bool Overlaps(const TxnDescriptor& a, const TxnDescriptor& b) {
  return StartsBeforeEnd(a, b) && StartsBeforeEnd(b, a);
}

// Numeric sort for log.N names.
uint64_t LogNumber(const std::string& name) {
  size_t dot = name.rfind('.');
  if (dot == std::string::npos) {
    return 0;
  }
  return std::strtoull(name.c_str() + dot + 1, nullptr, 10);
}

}  // namespace

Result<RecoveryReport> RunRecovery(fs::MemFs* lower,
                                   const std::string& log_dir) {
  RecoveryReport report;
  if (!lower->ExistsRaw(log_dir)) {
    return report;
  }
  PASS_ASSIGN_OR_RETURN(std::vector<std::string> names,
                        lower->ListDirRaw(log_dir));
  // The log dir also holds the cluster journal; only log.N files are logs.
  names.erase(std::remove_if(names.begin(), names.end(),
                             [](const std::string& name) {
                               return name.rfind("log.", 0) != 0;
                             }),
              names.end());
  std::sort(names.begin(), names.end(),
            [](const std::string& a, const std::string& b) {
              return LogNumber(a) < LogNumber(b);
            });

  std::map<uint64_t, OpenTxn> open_txns;
  // Per data path, the complete transactions still awaiting verification,
  // in log order. A later write that overlaps an earlier pending extent
  // supersedes it (the earlier data was durable before the later frames
  // were logged, and the overlap makes its bytes unverifiable); disjoint
  // extents of one file stay independently verifiable.
  std::map<std::string, std::vector<PendingWrite>> pending_writes;

  for (const std::string& name : names) {
    std::string path = log_dir + "/" + name;
    PASS_ASSIGN_OR_RETURN(std::string image, lower->ReadFileRaw(path));
    ++report.logs_scanned;
    bool truncated = false;
    PASS_ASSIGN_OR_RETURN(std::vector<LogEntry> entries,
                          ParseLog(image, &truncated));
    if (truncated) {
      ++report.truncated_logs;
    }
    for (LogEntry& entry : entries) {
      ++report.records_scanned;
      if (entry.record.attr == core::Attr::kBeginTxn) {
        const int64_t* txn_id = std::get_if<int64_t>(&entry.record.value);
        if (txn_id == nullptr) {
          return Corrupt(path + ": BEGINTXN without a transaction id");
        }
        open_txns[static_cast<uint64_t>(*txn_id)].entries.push_back(
            std::move(entry));
        continue;
      }
      if (entry.record.attr == core::Attr::kEndTxn) {
        const std::string* blob =
            std::get_if<std::string>(&entry.record.value);
        if (blob == nullptr) {
          return Corrupt(path + ": ENDTXN without a descriptor");
        }
        PASS_ASSIGN_OR_RETURN(TxnDescriptor descriptor,
                              DecodeTxnDescriptor(*blob));
        auto it = open_txns.find(descriptor.txn_id);
        if (it == open_txns.end()) {
          // END without BEGIN: treat as orphaned.
          ++report.orphaned_txns;
          continue;
        }
        ++report.complete_txns;
        std::vector<LogEntry> txn_entries = std::move(it->second.entries);
        open_txns.erase(it);
        txn_entries.erase(
            std::remove_if(txn_entries.begin(), txn_entries.end(),
                           [](const LogEntry& e) {
                             return e.record.attr == core::Attr::kBeginTxn;
                           }),
            txn_entries.end());
        if (descriptor.path.empty()) {
          // Provenance-only transaction: always consistent once complete.
          for (auto& e : txn_entries) {
            report.recovered_entries.push_back(std::move(e));
          }
          continue;
        }
        // Data transaction: supersede pending checks its extent overlaps
        // (their data became durable before this txn was logged).
        auto& pending = pending_writes[descriptor.path];
        for (auto superseded = pending.begin();
             superseded != pending.end();) {
          if (Overlaps(superseded->descriptor, descriptor)) {
            ++report.consistent_extents;
            for (auto& e : superseded->entries) {
              report.recovered_entries.push_back(std::move(e));
            }
            superseded = pending.erase(superseded);
          } else {
            ++superseded;
          }
        }
        pending.push_back(
            PendingWrite{std::move(descriptor), std::move(txn_entries)});
        continue;
      }
      // Ordinary record: attach to the (single) open transaction if one
      // exists; otherwise it is a stray record (count as scanned only).
      if (!open_txns.empty()) {
        open_txns.rbegin()->second.entries.push_back(std::move(entry));
      }
    }
  }

  report.orphaned_txns += open_txns.size();

  // Verify every still-pending write against the on-disk bytes. A path can
  // fail more than once (disjoint extents); it is reported once.
  std::set<std::string> inconsistent;
  for (auto& [path, pending] : pending_writes) {
    auto data = lower->ReadFileRaw(path);
    for (PendingWrite& write : pending) {
      const TxnDescriptor& descriptor = write.descriptor;
      bool consistent = false;
      // The extent must end inside the file; written without
      // `offset + length`, which can wrap.
      if (data.ok() && descriptor.offset <= data->size() &&
          descriptor.length <= data->size() - descriptor.offset) {
        std::string_view extent(*data);
        extent = extent.substr(descriptor.offset, descriptor.length);
        consistent = Md5::Hash(extent) == descriptor.data_md5;
      }
      if (consistent) {
        ++report.consistent_extents;
        for (auto& e : write.entries) {
          report.recovered_entries.push_back(std::move(e));
        }
      } else {
        ++report.inconsistent_extents;
        if (inconsistent.insert(path).second) {
          report.inconsistent_paths.push_back(path);
        }
      }
    }
  }
  return report;
}

Result<JournalScanReport> ScanJournal(fs::MemFs* lower,
                                      const std::string& path) {
  JournalScanReport report;
  if (!lower->ExistsRaw(path)) {
    return report;
  }
  PASS_ASSIGN_OR_RETURN(std::string image, lower->ReadFileRaw(path));
  FrameScanInfo scan;
  PASS_ASSIGN_OR_RETURN(report.records,
                        ParseJournal(image, &report.truncated, &scan));
  report.records_scanned = report.records.size();
  report.valid_bytes = scan.valid_bytes;
  report.corrupt_frames = scan.corrupt_frames;
  report.chain_head = scan.chain_head;
  return report;
}

}  // namespace pass::lasagna
