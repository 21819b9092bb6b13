#include "generator.h"

#include <string>
#include <utility>
#include <vector>

#include "src/core/provenance.h"
#include "src/core/system.h"
#include "src/os/kernel.h"
#include "src/util/strings.h"

namespace e2e {

using pass::Status;
using pass::StrFormat;

namespace {

constexpr int kPoolFiles = 2;
constexpr int kTaintSources = 2;
constexpr int kPoolReads = 2;
constexpr double kTaintP = 0.4;
constexpr double kCrossShardP = 0.5;
constexpr size_t kMinOutput = 1024;
constexpr size_t kMaxOutput = 8192;

std::string TaintPath(int shard, int i) {
  return StrFormat("/intel/s%d-src%d", shard, i);
}

}  // namespace

AuditGen::AuditGen(pass::cluster::ClusterCoordinator* cluster, uint64_t seed,
                   Tracer* tracer)
    : cluster_(cluster),
      gen_(seed),
      tracer_(tracer),
      pool_(cluster->shard_count()),
      by_shard_(cluster->shard_count()) {}

Status AuditGen::ReadFile(pass::os::Kernel& kernel, pass::os::Pid pid,
                          const std::string& path) {
  PASS_ASSIGN_OR_RETURN(pass::os::Fd fd, Call("os.open", [&] {
                          return kernel.Open(pid, path, pass::os::kOpenRead);
                        }));
  std::string data;
  PASS_RETURN_IF_ERROR(
      Call("os.read", [&] { return kernel.Read(pid, fd, 4096, &data); })
          .status());
  return Call("os.close", [&] { return kernel.Close(pid, fd); });
}

Status AuditGen::WriteNew(int shard, pass::os::Pid pid,
                          const std::string& path, size_t bytes) {
  pass::os::Kernel& kernel = cluster_->machine(shard).kernel();
  PASS_ASSIGN_OR_RETURN(
      pass::os::Fd fd, Call("os.open", [&] {
        return kernel.Open(pid, path,
                           pass::os::kOpenWrite | pass::os::kOpenCreate);
      }));
  std::string data(bytes, static_cast<char>('a' + gen_.Below(26)));
  PASS_RETURN_IF_ERROR(
      Call("os.write", [&] { return kernel.Write(pid, fd, data); }).status());
  user_bytes_ += bytes;
  return Call("os.close", [&] { return kernel.Close(pid, fd); });
}

Status AuditGen::Seed() {
  for (int shard = 0; shard < cluster_->shard_count(); ++shard) {
    pass::workloads::Machine& m = cluster_->machine(shard);
    pass::os::Kernel& kernel = m.kernel();
    pass::os::Pid seeder = Call("os.spawn", [&] {
      return kernel.Spawn(StrFormat("seeder-s%d", shard));
    });
    for (const char* dir : {"/bin", "/data", "/intel", "/out", "/chain"}) {
      PASS_RETURN_IF_ERROR(
          Call("os.mkdir", [&] { return kernel.Mkdir(seeder, dir); }));
    }
    PASS_RETURN_IF_ERROR(WriteNew(shard, seeder, "/bin/auditd", 4096));
    for (int i = 0; i < kPoolFiles; ++i) {
      std::string path = StrFormat("/data/s%d-%d", shard, i);
      PASS_RETURN_IF_ERROR(WriteNew(shard, seeder, path, 2048));
      pool_[shard].push_back(path);
    }
    for (int i = 0; i < kTaintSources; ++i) {
      std::string path = TaintPath(shard, i);
      PASS_RETURN_IF_ERROR(WriteNew(shard, seeder, path, 2048));
      PASS_ASSIGN_OR_RETURN(pass::core::ObjectRef ref,
                            Call("core.ref_of_path",
                                 [&] { return m.pass()->RefOfPath(path); }));
      ++discloses_;
      PASS_RETURN_IF_ERROR(Call("core.disclose", [&] {
        return m.pass()->DiscloseRecords(
            seeder, ref,
            {pass::core::Record::Annotation("taint", int64_t{1})});
      }));
    }
  }
  return Sync();
}

Status AuditGen::Chains(int chains) {
  ++round_;
  const int shards = cluster_->shard_count();
  for (int shard = 0; shard < shards; ++shard) {
    pass::workloads::Machine& m = cluster_->machine(shard);
    pass::os::Kernel& kernel = m.kernel();
    for (int p = 0; p < chains; ++p) {
      std::string tag = StrFormat("s%d-r%d-p%d", shard, round_, p);
      pass::os::Pid session = Call("os.spawn", [&] {
        return kernel.Spawn("session-" + tag);
      });
      PASS_RETURN_IF_ERROR(Call("os.exec", [&] {
        return kernel.Exec(session, "/bin/auditd", {"auditd"});
      }));
      PASS_ASSIGN_OR_RETURN(pass::os::Pid worker, Call("os.fork", [&] {
                              return kernel.Fork(session);
                            }));
      PASS_RETURN_IF_ERROR(Call("os.exec", [&] {
        return kernel.Exec(worker, "/tools/w-" + tag, {"w-" + tag, "--scan"});
      }));
      if (gen_.Chance(kTaintP)) {
        PASS_RETURN_IF_ERROR(ReadFile(
            kernel, worker,
            TaintPath(shard, static_cast<int>(gen_.Below(kTaintSources)))));
      }
      for (int r = 0; r < kPoolReads; ++r) {
        const std::vector<std::string>& pool = pool_[shard];
        PASS_RETURN_IF_ERROR(
            ReadFile(kernel, worker, pool[gen_.Below(pool.size())]));
      }
      std::string out_path = "/out/" + tag;
      size_t bytes = kMinOutput + gen_.Below(kMaxOutput - kMinOutput + 1);
      PASS_RETURN_IF_ERROR(WriteNew(shard, worker, out_path, bytes));
      PASS_ASSIGN_OR_RETURN(
          pass::core::ObjectRef out_ref,
          Call("core.ref_of_path",
               [&] { return m.pass()->RefOfPath(out_path); }));
      if (shards > 1 && gen_.Chance(kCrossShardP)) {
        int other = static_cast<int>(
            (shard + 1 + gen_.Below(shards - 1)) % shards);
        const std::vector<size_t>& theirs = by_shard_[other];
        if (!theirs.empty()) {
          const OutputFile& foreign =
              outputs_[theirs[gen_.Below(theirs.size())]];
          ++discloses_;
          PASS_RETURN_IF_ERROR(Call("core.disclose", [&] {
            return m.pass()->DiscloseRecords(
                worker, out_ref, {pass::core::Record::Input(foreign.ref)});
          }));
        }
      }
      by_shard_[shard].push_back(outputs_.size());
      outputs_.push_back(OutputFile{shard, out_path, out_ref});
      pool_[shard].push_back(out_path);
    }
  }
  return Status::Ok();
}

Status AuditGen::Sync() {
  return Timed(tracer_, "cluster.sync", &last_sync_ns_,
               [&] { return cluster_->Sync(); });
}

Status AuditGen::LineageChain(int depth) {
  std::vector<pass::core::ObjectRef> prev;
  for (int i = 0; i < depth; ++i) {
    int shard = i % cluster_->shard_count();
    std::string path = StrFormat("/chain/%d", i);
    std::string data(256, 'c');
    PASS_ASSIGN_OR_RETURN(pass::core::ObjectRef ref,
                          Call("cluster.write_with_lineage", [&] {
                            return cluster_->WriteWithLineage(shard, path,
                                                              data, prev);
                          }));
    user_bytes_ += data.size();
    prev = {ref};
  }
  return Sync();
}

const OutputFile* AuditGen::NewestOn(int shard) const {
  const std::vector<size_t>& mine = by_shard_[shard];
  return mine.empty() ? nullptr : &outputs_[mine.back()];
}

std::vector<std::string> AuditGen::TaintSources() const {
  std::vector<std::string> paths;
  for (int shard = 0; shard < cluster_->shard_count(); ++shard) {
    for (int i = 0; i < kTaintSources; ++i) {
      paths.push_back(TaintPath(shard, i));
    }
  }
  return paths;
}

}  // namespace e2e
