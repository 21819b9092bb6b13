#ifndef BENCH_E2E_SRC_GENERATOR_H_
#define BENCH_E2E_SRC_GENERATOR_H_

// The benchmark's audit-chain generator for the cluster workloads.
//
// Every input the cluster sees comes from here, drawn from the benchmark's
// own seeded Gen: per shard and round, `chains` audit chains of
//
//   spawn session, exec /bin/auditd; fork worker, exec /tools/w-...;
//   with p = 0.4 open/read/close a taint source; open/read/close 2 files
//   from the shard's read pool (seed files plus earlier outputs);
//   write one /out file of 1-8 KiB;
//   with p = 0.5 disclose (DPAPI) an INPUT edge to another shard's output.
//
// Each call goes through the public Kernel / PassSystem surface, under a
// span named after its layer ("os.open", "core.disclose", ...) when traced.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "src/cluster/cluster.h"

namespace e2e {

struct OutputFile {
  int shard = -1;
  std::string path;
  pass::core::ObjectRef ref;
};

class AuditGen {
 public:
  AuditGen(pass::cluster::ClusterCoordinator* cluster, uint64_t seed,
           Tracer* tracer);

  // Directories, the auditd binary, two pool files and two taint sources
  // (annotated taint = 1 through the DPAPI) on every shard, then Sync.
  pass::Status Seed();

  // One generator round without its Sync: `chains` chains on every shard.
  pass::Status Chains(int chains);

  // ClusterCoordinator::Sync under a "cluster.sync" span; its wall time
  // lands in last_sync_ns().
  pass::Status Sync();

  // The deep cross-shard lineage chain of the query workload: `depth` files
  // /chain/<i>, file i on shard i % shards with an INPUT edge to file i-1.
  pass::Status LineageChain(int depth);

  const std::vector<OutputFile>& outputs() const { return outputs_; }
  // Newest output written on `shard`; null before its first round.
  const OutputFile* NewestOn(int shard) const;
  std::vector<std::string> TaintSources() const;

  uint64_t events() const { return events_; }
  uint64_t discloses() const { return discloses_; }
  uint64_t user_bytes() const { return user_bytes_; }
  WallNs last_sync_ns() const { return last_sync_ns_; }
  Gen& gen() { return gen_; }

 private:
  // One Kernel/DPAPI call under a span; counts as one generator event.
  template <typename F>
  auto Call(const char* span, F&& fn) {
    ++events_;
    Span s(tracer_, span);
    return fn();
  }

  pass::Status ReadFile(pass::os::Kernel& kernel, pass::os::Pid pid,
                        const std::string& path);
  pass::Status WriteNew(int shard, pass::os::Pid pid, const std::string& path,
                        size_t bytes);

  pass::cluster::ClusterCoordinator* cluster_;
  Gen gen_;
  Tracer* tracer_;
  int round_ = 0;
  std::vector<std::vector<std::string>> pool_;  // per shard: readable paths
  std::vector<std::vector<size_t>> by_shard_;   // per shard: output indexes
  std::vector<OutputFile> outputs_;
  uint64_t events_ = 0;
  uint64_t discloses_ = 0;
  uint64_t user_bytes_ = 0;
  WallNs last_sync_ns_ = 0;
};

}  // namespace e2e

#endif  // BENCH_E2E_SRC_GENERATOR_H_
