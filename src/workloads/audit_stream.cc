#include "src/workloads/audit_stream.h"

#include <string>
#include <utility>
#include <vector>

#include "src/core/provenance.h"
#include "src/core/system.h"
#include "src/os/kernel.h"
#include "src/os/process.h"
#include "src/util/strings.h"

namespace pass::workloads {

namespace {

std::string FileKey(int shard, const std::string& path) {
  return std::to_string(shard) + ":" + path;
}

}  // namespace

AuditStreamGenerator::AuditStreamGenerator(
    cluster::ClusterCoordinator* cluster, AuditStreamOptions options)
    : cluster_(cluster),
      options_(options),
      rng_(options.seed == 0 ? 1 : options.seed),
      readable_(cluster->shard_count()) {}

uint64_t AuditStreamGenerator::NextRand() {
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_;
}

std::string AuditStreamGenerator::TaintDescendantQuery() {
  // Everything downstream of a taint source, filtered to processes: the
  // live "which processes fall under tainted intel" watchlist.
  return "select D.name from Provenance.file as T T.~input* as D "
         "where T.taint = 1 and D.type = \"PROC\"";
}

std::string AuditStreamGenerator::TaintAncestryQuery() {
  // The same alarm from the other end: processes whose ancestry closure
  // crosses an object annotated as a taint source.
  return "select P.name from Provenance.process as P P.input* as A "
         "where A.taint = 1";
}

Status AuditStreamGenerator::SeedTaintSources() {
  for (int shard = 0; shard < cluster_->shard_count(); ++shard) {
    workloads::Machine& m = cluster_->machine(shard);
    os::Pid seeder = m.kernel().Spawn(StrFormat("seeder-s%d", shard));
    for (const char* dir : {"/bin", "/data", "/intel", "/out"}) {
      Status made = m.kernel().Mkdir(seeder, dir);
      if (!made.ok() && made.code() != Code::kExists) {
        return made;
      }
    }
    // The shared tool binary every audit session execs.
    PASS_RETURN_IF_ERROR(
        m.kernel().WriteFile(seeder, "/bin/auditd", "#!auditd"));
    // Plain data files: the untainted read pool.
    for (int i = 0; i < 2; ++i) {
      std::string path = StrFormat("/data/s%d-%d", shard, i);
      PASS_RETURN_IF_ERROR(m.kernel().WriteFile(seeder, path, "telemetry"));
      readable_[shard].push_back(path);
    }
    // Taint sources, annotated through the DPAPI (taint = 1).
    for (int i = 0; i < options_.taint_sources; ++i) {
      std::string path = StrFormat("/intel/s%d-src%d", shard, i);
      PASS_RETURN_IF_ERROR(
          m.kernel().WriteFile(seeder, path, "dropped payload"));
      PASS_ASSIGN_OR_RETURN(core::ObjectRef ref, m.pass()->RefOfPath(path));
      PASS_RETURN_IF_ERROR(m.pass()->DiscloseRecords(
          seeder, ref,
          {core::Record::Annotation("taint", static_cast<int64_t>(1))}));
      // Deliberately NOT in the readable pool: taint enters a worker's
      // lineage only through the explicit taint_fraction branch (or through
      // a tainted output another worker produced), so untainted chains stay
      // untainted and the standing queries have something to discriminate.
      tainted_files_.insert(FileKey(shard, path));
    }
  }
  return cluster_->Sync();
}

Status AuditStreamGenerator::StreamRound() {
  ++round_;
  for (int shard = 0; shard < cluster_->shard_count(); ++shard) {
    workloads::Machine& m = cluster_->machine(shard);
    os::Kernel& kernel = m.kernel();
    for (int p = 0; p < options_.processes_per_shard; ++p) {
      // Fork/exec chain: a session process forks a worker, which execs a
      // uniquely named tool — the worker pnode carries that name, so the
      // standing queries (and the ground truth here) can identify it.
      os::Pid session =
          kernel.Spawn(StrFormat("session-s%d-r%d-p%d", shard, round_, p));
      PASS_RETURN_IF_ERROR(kernel.Exec(session, "/bin/auditd", {"auditd"}));
      PASS_ASSIGN_OR_RETURN(os::Pid worker, kernel.Fork(session));
      std::string worker_name =
          StrFormat("w-s%d-r%d-p%d", shard, round_, p);
      PASS_RETURN_IF_ERROR(kernel.Exec(worker, "/tools/" + worker_name,
                                       {worker_name, "--scan"}));

      bool tainted = false;
      auto read_path = [&](const std::string& path) -> Status {
        PASS_ASSIGN_OR_RETURN(os::Fd fd,
                              kernel.Open(worker, path, os::kOpenRead));
        std::string data;
        PASS_RETURN_IF_ERROR(kernel.Read(worker, fd, 64, &data).status());
        PASS_RETURN_IF_ERROR(kernel.Close(worker, fd));
        if (tainted_files_.count(FileKey(shard, path)) != 0) {
          tainted = true;
        }
        return Status::Ok();
      };

      if (NextUnit() < options_.taint_fraction) {
        int pick = static_cast<int>(NextRand() % options_.taint_sources);
        PASS_RETURN_IF_ERROR(
            read_path(StrFormat("/intel/s%d-src%d", shard, pick)));
      }
      for (int r = 0; r < options_.reads_per_process; ++r) {
        const std::vector<std::string>& pool = readable_[shard];
        PASS_RETURN_IF_ERROR(read_path(pool[NextRand() % pool.size()]));
      }
      if (tainted) {
        tainted_processes_.insert(worker_name);
      }

      // The worker's output: INPUT edges to the worker land via the write
      // interceptor; taintedness follows the worker.
      std::string out_path =
          StrFormat("/out/s%d-r%d-p%d", shard, round_, p);
      PASS_ASSIGN_OR_RETURN(
          os::Fd out_fd,
          kernel.Open(worker, out_path,
                      os::kOpenWrite | os::kOpenCreate));
      PASS_RETURN_IF_ERROR(
          kernel.Write(worker, out_fd, "scan findings").status());
      PASS_RETURN_IF_ERROR(kernel.Close(worker, out_fd));
      PASS_ASSIGN_OR_RETURN(core::ObjectRef out_ref,
                            m.pass()->RefOfPath(out_path));
      bool out_tainted = tainted;

      // Cross-shard lineage: disclose an INPUT edge to a foreign output,
      // carrying taint across the cluster fabric.
      if (!outputs_.empty() && NextUnit() < options_.cross_shard_fraction) {
        const OutputFile& foreign =
            outputs_[NextRand() % outputs_.size()];
        if (foreign.shard != shard) {
          PASS_RETURN_IF_ERROR(m.pass()->DiscloseRecords(
              worker, out_ref, {core::Record::Input(foreign.ref)}));
          out_tainted = out_tainted || foreign.tainted;
        }
      }

      if (out_tainted) {
        tainted_files_.insert(FileKey(shard, out_path));
      }
      outputs_.push_back(OutputFile{shard, out_ref, out_path, out_tainted});
      readable_[shard].push_back(out_path);
    }
  }
  return cluster_->Sync();
}

}  // namespace pass::workloads
