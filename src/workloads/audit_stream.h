#ifndef SRC_WORKLOADS_AUDIT_STREAM_H_
#define SRC_WORKLOADS_AUDIT_STREAM_H_

// AuditStreamGenerator: a BSM-style audit workload streamed through cluster
// ingest.
//
// Each StreamRound() replays one burst of host activity on every shard —
// fork/exec chains (auditd session forks a worker which execs a tool
// binary), file reads and writes through plain kernel syscalls, and
// occasional touches of seeded taint-source files — then runs the cluster
// ingest path (ClusterCoordinator::Sync) so the burst lands in the shard
// ProvDbs like any other provenance. Nothing here calls a provenance API on
// the hot path: the kernel interceptor observes the syscalls exactly as
// §3/§5 of the paper describe (a process that reads /intel/src0 gains an
// INPUT dependency on it; the file it writes gains an INPUT dependency on
// the process), which is what makes the stream a faithful audit feed for
// the standing-query tier.
//
// Cross-shard lineage: a configurable fraction of outputs additionally
// disclose (DPAPI pass_write) INPUT edges to files owned by other shards,
// so taint propagates across the cluster and standing queries must follow
// frontier entries through the federated source.
//
// The generator tracks ground truth as it goes: which files and processes
// are taint-reachable, propagated in event order. Tests and benches use
// expected_tainted_processes() as the floor a taint-descendant standing
// query must flag, while equality with a from-scratch evaluation remains
// the primary gate.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/util/result.h"

namespace pass::workloads {

struct AuditStreamOptions {
  int processes_per_shard = 2;   // worker chains per shard per round
  int reads_per_process = 2;     // non-taint input reads per worker
  int taint_sources = 2;         // /intel/src<i>, placed round-robin
  double taint_fraction = 0.4;   // workers that read a taint source
  double cross_shard_fraction = 0.5;  // outputs disclosing foreign lineage
  uint64_t seed = 17;
};

class AuditStreamGenerator {
 public:
  AuditStreamGenerator(cluster::ClusterCoordinator* cluster,
                       AuditStreamOptions options = AuditStreamOptions());

  // Create the tool binaries and the taint-source files (annotated
  // taint = 1 through the DPAPI) and ingest them. Call once, first.
  Status SeedTaintSources();

  // One burst of audit activity on every shard, ingested via Sync().
  Status StreamRound();

  // Spawn names of worker processes that read taint directly or through a
  // tainted file, in event order — the ground-truth floor for a
  // taint-descendant standing query.
  const std::set<std::string>& expected_tainted_processes() const {
    return tainted_processes_;
  }
  // The canonical standing queries over this stream.
  static std::string TaintDescendantQuery();  // processes under a taint source
  static std::string TaintAncestryQuery();    // processes whose ancestry crosses taint

 private:
  struct OutputFile {
    int shard = -1;
    core::ObjectRef ref;
    std::string path;
    bool tainted = false;
  };

  uint64_t NextRand();  // xorshift64: deterministic, env-independent
  double NextUnit() { return (NextRand() >> 11) * 0x1.0p-53; }

  cluster::ClusterCoordinator* cluster_;
  AuditStreamOptions options_;
  uint64_t rng_;
  int round_ = 0;
  std::vector<std::vector<std::string>> readable_;  // per shard: local paths
  std::vector<OutputFile> output_files_;            // all shards, in order
  std::set<std::string> tainted_files_;             // "<shard>:<path>"
  std::set<std::string> tainted_processes_;
};

}  // namespace pass::workloads

#endif  // SRC_WORKLOADS_AUDIT_STREAM_H_
