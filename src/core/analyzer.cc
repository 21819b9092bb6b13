#include "src/core/analyzer.h"

#include "src/util/logging.h"

namespace pass::core {

void Analyzer::Register(PnodeId pnode, Version version) {
  auto [it, inserted] = nodes_.try_emplace(pnode);
  if (inserted) {
    it->second.version = version;
  }
}

Analyzer::Node& Analyzer::NodeFor(PnodeId pnode) {
  return nodes_.try_emplace(pnode).first->second;
}

Version Analyzer::CurrentVersion(PnodeId pnode) const {
  auto it = nodes_.find(pnode);
  return it == nodes_.end() ? 0 : it->second.version;
}

ObjectRef Analyzer::CurrentRef(PnodeId pnode) const {
  return ObjectRef{pnode, CurrentVersion(pnode)};
}

void Analyzer::AddAttribute(PnodeId subject, const Record& record,
                            const Emit& emit) {
  ++stats_.records_in;
  Node& node = NodeFor(subject);
  uint64_t hash = RecordHash(record);
  if (!node.attr_hashes.insert(hash).second) {
    ++stats_.duplicates_dropped;
    return;
  }
  ++stats_.records_out;
  emit(ObjectRef{subject, node.version}, record);
}

void Analyzer::EmitInput(PnodeId dst, const ObjectRef& src, const Emit& emit) {
  Node& node = NodeFor(dst);
  node.deps.insert(src);
  ++stats_.edges_accepted;
  ++stats_.records_out;
  emit(ObjectRef{dst, node.version}, Record::Input(src));
}

Version Analyzer::Freeze(PnodeId pnode, const Emit& emit,
                         const FreezeFn& freeze) {
  Node& node = NodeFor(pnode);
  ObjectRef old_ref{pnode, node.version};
  Version new_version;
  if (freeze) {
    new_version = freeze(pnode);
  } else {
    new_version = node.version + 1;
  }
  PASS_CHECK(new_version > node.version);
  node.version = new_version;
  node.observed = false;
  node.deps.clear();
  node.attr_hashes.clear();
  ++stats_.freezes;
  // The freeze marker plus the version chain: the new version descends from
  // the old one.
  ++stats_.records_out;
  emit(ObjectRef{pnode, new_version},
       Record::Of(Attr::kFreeze, static_cast<int64_t>(new_version)));
  EmitInput(pnode, old_ref, emit);
  return new_version;
}

void Analyzer::AddDependency(PnodeId dst, PnodeId src, const Emit& emit,
                             const FreezeFn& freeze) {
  AddDependencyRef(dst, CurrentRef(src), emit, freeze);
}

void Analyzer::AddDependencyRef(PnodeId dst, const ObjectRef& src_ref,
                                const Emit& emit, const FreezeFn& freeze) {
  ++stats_.records_in;
  PnodeId src = src_ref.pnode;
  if (dst == src) {
    // A same-object dependency at the same version is meaningless (a
    // process re-reading its own output is handled through versions).
    ++stats_.self_edges_dropped;
    return;
  }
  Node& dst_node = NodeFor(dst);
  Node& src_node = NodeFor(src);
  if (dst_node.deps.count(src_ref) > 0) {
    ++stats_.duplicates_dropped;
    return;  // duplicate of an existing edge (repeated small reads/writes)
  }
  bool src_is_current = src_ref.version == src_node.version;

  switch (algorithm_) {
    case CycleAlgorithm::kCycleAvoidance: {
      if (dst_node.observed) {
        // Someone depends on dst's current version; giving dst new inputs
        // now could close a cycle. Freeze dst first (§5.4).
        Freeze(dst, emit, freeze);
      }
      if (src_is_current) {
        src_node.observed = true;
      }
      EmitInput(dst, src_ref, emit);
      break;
    }
    case CycleAlgorithm::kDetectAndMerge: {
      PnodeId dst_root = FindRoot(dst);
      PnodeId src_root = FindRoot(src);
      if (dst_root == src_root) {
        ++stats_.duplicates_dropped;  // internal edge of a merged entity
        return;
      }
      if (PathExists(src_root, dst_root)) {
        // Adding dst -> src would close a cycle: merge the entities (the
        // PASSv1 approach the paper calls "challenging").
        Union(dst_root, src_root);
        ++stats_.cycles_merged;
        return;
      }
      graph_[dst_root].insert(src_root);
      if (src_is_current) {
        src_node.observed = true;
      }
      EmitInput(dst, src_ref, emit);
      break;
    }
  }
}

std::vector<ObjectRef> Analyzer::CurrentDeps(PnodeId pnode) const {
  auto it = nodes_.find(pnode);
  if (it == nodes_.end()) {
    return {};
  }
  return std::vector<ObjectRef>(it->second.deps.begin(),
                                it->second.deps.end());
}

void Analyzer::Drop(PnodeId pnode) {
  nodes_.erase(pnode);
  // Keep graph_ entries: other nodes may still reference the pnode and the
  // merged-entity structure must stay stable.
}

PnodeId Analyzer::FindRoot(PnodeId pnode) {
  auto it = merge_parent_.find(pnode);
  if (it == merge_parent_.end()) {
    return pnode;
  }
  PnodeId root = FindRoot(it->second);
  it->second = root;  // path compression
  return root;
}

void Analyzer::Union(PnodeId a, PnodeId b) {
  PnodeId ra = FindRoot(a);
  PnodeId rb = FindRoot(b);
  if (ra == rb) {
    return;
  }
  merge_parent_[rb] = ra;
  // Fold rb's edges into ra.
  auto it = graph_.find(rb);
  if (it != graph_.end()) {
    graph_[ra].insert(it->second.begin(), it->second.end());
    graph_.erase(it);
  }
  // Redirect edges pointing at rb (lazy: resolved through FindRoot during
  // traversal).
  graph_[ra].erase(ra);
}

bool Analyzer::PathExists(PnodeId from, PnodeId to) {
  // DFS over the merged graph: does `from` (transitively) depend on `to`?
  std::vector<PnodeId> stack{from};
  std::unordered_set<PnodeId> seen;
  while (!stack.empty()) {
    PnodeId node = FindRoot(stack.back());
    stack.pop_back();
    if (node == to) {
      return true;
    }
    if (!seen.insert(node).second) {
      continue;
    }
    auto it = graph_.find(node);
    if (it == graph_.end()) {
      continue;
    }
    for (PnodeId next : it->second) {
      stack.push_back(FindRoot(next));
    }
  }
  return false;
}

}  // namespace pass::core
