#include "src/nfs/server.h"

#include "src/os/path.h"
#include "src/util/strings.h"

namespace pass::nfs {

Result<os::VnodeRef> NfsServer::Resolve(const std::string& path) {
  os::VnodeRef node = fs_->root();
  for (const std::string& comp : os::PathComponents(path)) {
    PASS_ASSIGN_OR_RETURN(node, node->Lookup(comp));
  }
  return node;
}

Result<os::VnodeRef> NfsServer::ResolveParent(const std::string& path,
                                              std::string* leaf) {
  *leaf = os::BaseName(path);
  return Resolve(os::DirName(path));
}

void NfsServer::ApplyFreezes(const core::Bundle& bundle, os::Ino target_ino,
                             core::PnodeId target_pnode) {
  // Only FREEZE records addressed to the write target advance its version;
  // freeze records of non-persistent objects (processes) ride along in the
  // bundle but belong to the client's analyzer state.
  for (const core::BundleEntry& entry : bundle) {
    bool about_target = !entry.target.valid() ||
                        entry.target.pnode == target_pnode;
    if (!about_target) {
      continue;
    }
    for (const core::Record& record : entry.records) {
      if (record.attr == core::Attr::kFreeze && target_ino != 0) {
        volume_->ApplyFreeze(target_ino);
        ++server_stats_.freezes_applied;
      }
    }
  }
}

NfsResponse NfsServer::DoPassWrite(const NfsRequest& request) {
  if (volume_ == nullptr) {
    return NfsResponse::From(Unsupported("export is not a PASS volume"));
  }
  core::Bundle bundle;
  if (!request.bundle.empty()) {
    Decoder in(request.bundle);
    auto decoded = core::DecodeBundle(&in);
    if (!decoded.ok()) {
      return NfsResponse::From(decoded.status());
    }
    bundle = std::move(*decoded);
  }

  NfsResponse response;
  if (request.path.empty()) {
    // Provenance-only commit of a chunked transaction (pass_sync path).
    if (request.txn_id == 0) {
      return NfsResponse::From(
          InvalidArgument("pass_write without target or transaction"));
    }
    if (!bundle.empty()) {
      Status status = volume_->AppendExternalTxn(request.txn_id, bundle);
      if (!status.ok()) {
        return NfsResponse::From(status);
      }
    }
    Status status =
        volume_->CommitExternalTxn(request.txn_id, nullptr, 0, "");
    if (!status.ok()) {
      return NfsResponse::From(status);
    }
    ++server_stats_.txns_committed;
    return response;
  }

  auto vnode = Resolve(request.path);
  if (!vnode.ok()) {
    return NfsResponse::From(vnode.status());
  }
  auto* lasagna_vnode =
      dynamic_cast<lasagna::internal::LasagnaVnode*>(vnode->get());
  os::Ino ino = lasagna_vnode != nullptr ? lasagna_vnode->ino() : 0;
  ApplyFreezes(bundle, ino, (*vnode)->pnode());

  if (request.txn_id != 0) {
    // Commit of a chunked transaction: remaining records first, then the
    // ENDTXN + data through the external-transaction interface.
    if (!bundle.empty()) {
      Status status = volume_->AppendExternalTxn(request.txn_id, bundle);
      if (!status.ok()) {
        return NfsResponse::From(status);
      }
    }
    Status status = volume_->CommitExternalTxn(request.txn_id, *vnode,
                                               request.offset, request.data);
    if (!status.ok()) {
      return NfsResponse::From(status);
    }
    ++server_stats_.txns_committed;
    response.bytes = request.data.size();
  } else {
    auto written =
        (*vnode)->PassWrite(request.offset, request.data, bundle);
    if (!written.ok()) {
      return NfsResponse::From(written.status());
    }
    response.bytes = *written;
  }
  ++server_stats_.pass_writes;
  response.pnode = (*vnode)->pnode();
  response.version = (*vnode)->version();
  return response;
}

NfsResponse NfsServer::Handle(const NfsRequest& request) {
  env_->ChargeCpu(kServiceCpuNs);
  NfsResponse response;
  switch (request.op) {
    case NfsOp::kLookup:
    case NfsOp::kGetattr: {
      auto vnode = Resolve(request.path);
      if (!vnode.ok()) {
        return NfsResponse::From(vnode.status());
      }
      auto attr = (*vnode)->Getattr();
      if (!attr.ok()) {
        return NfsResponse::From(attr.status());
      }
      response.attr.is_dir = attr->type == os::VnodeType::kDirectory;
      response.attr.size = attr->size;
      response.pnode = (*vnode)->pnode();
      response.version = (*vnode)->version();
      return response;
    }
    case NfsOp::kCreate:
    case NfsOp::kMkdir: {
      std::string leaf;
      auto parent = ResolveParent(request.path, &leaf);
      if (!parent.ok()) {
        return NfsResponse::From(parent.status());
      }
      auto vnode = (*parent)->Create(
          leaf, request.op == NfsOp::kMkdir ? os::VnodeType::kDirectory
                                            : os::VnodeType::kFile);
      if (!vnode.ok()) {
        return NfsResponse::From(vnode.status());
      }
      response.pnode = (*vnode)->pnode();
      response.version = (*vnode)->version();
      return response;
    }
    case NfsOp::kRead: {
      auto vnode = Resolve(request.path);
      if (!vnode.ok()) {
        return NfsResponse::From(vnode.status());
      }
      auto n = (*vnode)->Read(request.offset, request.length, &response.data);
      if (!n.ok()) {
        return NfsResponse::From(n.status());
      }
      return response;
    }
    case NfsOp::kWrite: {
      auto vnode = Resolve(request.path);
      if (!vnode.ok()) {
        return NfsResponse::From(vnode.status());
      }
      auto n = (*vnode)->Write(request.offset, request.data);
      if (!n.ok()) {
        return NfsResponse::From(n.status());
      }
      response.bytes = *n;
      return response;
    }
    case NfsOp::kTruncate: {
      auto vnode = Resolve(request.path);
      if (!vnode.ok()) {
        return NfsResponse::From(vnode.status());
      }
      return NfsResponse::From((*vnode)->Truncate(request.length));
    }
    case NfsOp::kRemove: {
      std::string leaf;
      auto parent = ResolveParent(request.path, &leaf);
      if (!parent.ok()) {
        return NfsResponse::From(parent.status());
      }
      return NfsResponse::From((*parent)->Unlink(leaf));
    }
    case NfsOp::kRename: {
      std::string from_leaf;
      std::string to_leaf;
      auto from_parent = ResolveParent(request.path, &from_leaf);
      auto to_parent = ResolveParent(request.path2, &to_leaf);
      if (!from_parent.ok()) {
        return NfsResponse::From(from_parent.status());
      }
      if (!to_parent.ok()) {
        return NfsResponse::From(to_parent.status());
      }
      return NfsResponse::From(
          fs_->Rename(*from_parent, from_leaf, *to_parent, to_leaf));
    }
    case NfsOp::kReaddir: {
      auto vnode = Resolve(request.path);
      if (!vnode.ok()) {
        return NfsResponse::From(vnode.status());
      }
      auto entries = (*vnode)->Readdir();
      if (!entries.ok()) {
        return NfsResponse::From(entries.status());
      }
      for (const os::Dirent& entry : *entries) {
        response.names += entry.name;
        response.names +=
            entry.type == os::VnodeType::kDirectory ? "/\n" : "\n";
      }
      return response;
    }
    case NfsOp::kPassRead: {
      auto vnode = Resolve(request.path);
      if (!vnode.ok()) {
        return NfsResponse::From(vnode.status());
      }
      auto info =
          (*vnode)->PassRead(request.offset, request.length, &response.data);
      if (!info.ok()) {
        return NfsResponse::From(info.status());
      }
      response.pnode = info->source.pnode;
      response.version = info->source.version;
      return response;
    }
    case NfsOp::kPassWrite:
      return DoPassWrite(request);
    case NfsOp::kBeginTxn: {
      if (volume_ == nullptr) {
        return NfsResponse::From(Unsupported("export is not a PASS volume"));
      }
      auto txn = volume_->BeginExternalTxn();
      if (!txn.ok()) {
        return NfsResponse::From(txn.status());
      }
      response.txn_id = *txn;
      return response;
    }
    case NfsOp::kPassProv: {
      if (volume_ == nullptr) {
        return NfsResponse::From(Unsupported("export is not a PASS volume"));
      }
      core::Bundle bundle;
      Decoder in(request.bundle);
      auto decoded = core::DecodeBundle(&in);
      if (!decoded.ok()) {
        return NfsResponse::From(decoded.status());
      }
      if (request.txn_id != 0) {
        return NfsResponse::From(
            volume_->AppendExternalTxn(request.txn_id, *decoded));
      }
      return NfsResponse::From(volume_->PassProv(*decoded));
    }
    case NfsOp::kPassMkobj: {
      if (volume_ == nullptr) {
        return NfsResponse::From(Unsupported("export is not a PASS volume"));
      }
      auto vnode = volume_->PassMkobj();
      if (!vnode.ok()) {
        return NfsResponse::From(vnode.status());
      }
      response.pnode = (*vnode)->pnode();
      response.version = (*vnode)->version();
      return response;
    }
    case NfsOp::kPassReviveobj: {
      if (volume_ == nullptr) {
        return NfsResponse::From(Unsupported("export is not a PASS volume"));
      }
      auto vnode = volume_->PassReviveobj(request.pnode, request.version);
      if (!vnode.ok()) {
        return NfsResponse::From(vnode.status());
      }
      response.pnode = (*vnode)->pnode();
      response.version = (*vnode)->version();
      return response;
    }
  }
  return NfsResponse::From(Unsupported("unknown NFS op"));
}

}  // namespace pass::nfs
