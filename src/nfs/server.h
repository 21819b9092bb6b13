#ifndef SRC_NFS_SERVER_H_
#define SRC_NFS_SERVER_H_

// PA-NFS server: exports a Lasagna volume over the protocol in
// src/nfs/protocol.h. Provenance chunks are logged on arrival (so WAP holds
// end-to-end); FREEZE records inside incoming bundles advance the server's
// version numbers, merging the versions clients assigned locally (§6.1.2).

#include <string>

#include "src/lasagna/lasagna.h"
#include "src/nfs/protocol.h"
#include "src/sim/env.h"

namespace pass::nfs {

struct NfsServerStats {
  uint64_t pass_writes = 0;
  uint64_t txns_committed = 0;
  uint64_t freezes_applied = 0;
};

class NfsServer {
 public:
  // Export any filesystem; DPAPI extensions are served when the export is
  // a Lasagna volume (vanilla-NFS baseline exports a plain fs).
  NfsServer(sim::Env* env, os::FileSystem* export_fs, std::string name)
      : env_(env),
        fs_(export_fs),
        volume_(dynamic_cast<lasagna::LasagnaFs*>(export_fs)),
        name_(std::move(name)) {}

  // Execute one request (network cost is charged by the client stub).
  NfsResponse Handle(const NfsRequest& request);

  const std::string& name() const { return name_; }
  lasagna::LasagnaFs* volume() { return volume_; }
  os::FileSystem* export_fs() { return fs_; }
  const NfsServerStats& stats() const { return server_stats_; }

  // CPU cost per request at the server.
  static constexpr sim::Nanos kServiceCpuNs = 4000;

 private:
  Result<os::VnodeRef> Resolve(const std::string& path);
  Result<os::VnodeRef> ResolveParent(const std::string& path,
                                     std::string* leaf);
  NfsResponse DoPassWrite(const NfsRequest& request);
  // Apply client-side FREEZE records addressed to the write target.
  void ApplyFreezes(const core::Bundle& bundle, os::Ino target_ino,
                    core::PnodeId target_pnode);

  sim::Env* env_;
  os::FileSystem* fs_;
  lasagna::LasagnaFs* volume_;
  std::string name_;
  NfsServerStats server_stats_;
};

}  // namespace pass::nfs

#endif  // SRC_NFS_SERVER_H_
