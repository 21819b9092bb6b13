#ifndef SRC_CORE_ANALYZER_H_
#define SRC_CORE_ANALYZER_H_

// The analyzer (§5.4): processes the stream of provenance records,
// eliminates duplicates, and ensures cyclic dependencies do not arise.
//
// Two algorithms are implemented:
//
//  * kCycleAvoidance (PASSv2, default) — uses only an object's *local*
//    dependency information. Per object we track the current version, the
//    set of direct ancestors of the current version, and an `observed` bit
//    meaning "some object depends on the current version". Before an
//    observed object may gain a new inbound dependency it is frozen (new
//    version whose first ancestor is the prior version). Because a version
//    can never gain dependencies after it has acquired dependents, version
//    creation order is a topological order and the graph is acyclic — a
//    property the tests verify against a full graph checker.
//
//  * kDetectAndMerge (PASSv1) — maintains the global dependency graph and
//    searches for cycles on every edge insertion; nodes on a detected cycle
//    are merged into one entity (union-find). Kept as an ablation baseline;
//    the paper describes abandoning it because merging "proved challenging".
//
// The analyzer is storage-agnostic: freezing a persistent object is done
// through a callback (Lasagna pass_freeze), and accepted records are pushed
// to an emit callback that the caller routes (distributor cache or log).

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/provenance.h"

namespace pass::core {

enum class CycleAlgorithm : uint8_t {
  kCycleAvoidance,  // PASSv2
  kDetectAndMerge,  // PASSv1 ablation
};

struct AnalyzerStats {
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  uint64_t duplicates_dropped = 0;
  uint64_t self_edges_dropped = 0;
  uint64_t freezes = 0;
  uint64_t cycles_merged = 0;   // kDetectAndMerge only
  uint64_t edges_accepted = 0;
};

class Analyzer {
 public:
  // Emit: an accepted record about `subject`, ready for routing.
  using Emit = std::function<void(const ObjectRef& subject, const Record&)>;
  // Freeze: create a new version of `pnode` at storage level; returns the
  // new version number. The analyzer falls back to local version counting
  // when the callback is empty.
  using FreezeFn = std::function<Version(PnodeId)>;

  explicit Analyzer(CycleAlgorithm algorithm = CycleAlgorithm::kCycleAvoidance)
      : algorithm_(algorithm) {}

  // Make `pnode` known at `version` (objects arriving from storage carry
  // their persisted version).
  void Register(PnodeId pnode, Version version = 0);
  bool Known(PnodeId pnode) const { return nodes_.count(pnode) > 0; }

  Version CurrentVersion(PnodeId pnode) const;
  ObjectRef CurrentRef(PnodeId pnode) const;

  // Add an attribute record describing the current version of `subject`.
  // Duplicate (attribute, value) pairs for the same version are dropped.
  void AddAttribute(PnodeId subject, const Record& record, const Emit& emit);

  // Add a dependency: current version of `dst` depends on current version
  // of `src`. May freeze `dst` first (cycle handling). Emits the INPUT
  // record (and the FREEZE + version-chain records if a freeze occurred).
  void AddDependency(PnodeId dst, PnodeId src, const Emit& emit,
                     const FreezeFn& freeze = FreezeFn());

  // Same, but against an explicit (pnode, version) ancestor — used when a
  // layer discloses a dependency captured earlier via pass_read. Edges to
  // non-current versions are always safe: a frozen version never gains new
  // dependencies.
  void AddDependencyRef(PnodeId dst, const ObjectRef& src, const Emit& emit,
                        const FreezeFn& freeze = FreezeFn());

  // Explicit freeze (storage-initiated, e.g. pass_freeze from user level).
  Version Freeze(PnodeId pnode, const Emit& emit,
                 const FreezeFn& freeze = FreezeFn());

  // Direct ancestors of the current version (cycle-avoidance local state).
  std::vector<ObjectRef> CurrentDeps(PnodeId pnode) const;

  // Forget an object (drop_inode of an unlinked file).
  void Drop(PnodeId pnode);

  const AnalyzerStats& stats() const { return stats_; }
  CycleAlgorithm algorithm() const { return algorithm_; }

 private:
  struct Node {
    Version version = 0;
    bool observed = false;            // current version has dependents
    std::set<ObjectRef> deps;         // direct ancestors of current version
    std::unordered_set<uint64_t> attr_hashes;  // dedup for current version
  };

  Node& NodeFor(PnodeId pnode);
  void EmitInput(PnodeId dst, const ObjectRef& src, const Emit& emit);

  // kDetectAndMerge machinery.
  PnodeId FindRoot(PnodeId pnode);
  void Union(PnodeId a, PnodeId b);
  bool PathExists(PnodeId from, PnodeId to);

  CycleAlgorithm algorithm_;
  std::unordered_map<PnodeId, Node> nodes_;
  AnalyzerStats stats_;

  // Global graph for kDetectAndMerge: adjacency over merged equivalence
  // classes (edges dst -> src, "depends on").
  std::unordered_map<PnodeId, std::set<PnodeId>> graph_;
  std::unordered_map<PnodeId, PnodeId> merge_parent_;
};

}  // namespace pass::core

#endif  // SRC_CORE_ANALYZER_H_
