#include "src/fs/memfs.h"

#include <algorithm>

#include "src/os/path.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace pass::fs {

using internal::MemInode;
using internal::MemInodeRef;
using internal::MemVnode;

namespace internal {

std::string MemInode::PathFromRoot() const {
  if (parent == nullptr) {
    return "/";
  }
  std::vector<std::string> parts;
  const MemInode* node = this;
  while (node->parent != nullptr) {
    parts.push_back(node->name);
    node = node->parent;
  }
  std::reverse(parts.begin(), parts.end());
  return "/" + Join(parts, "/");
}

Result<os::Attr> MemVnode::Getattr() {
  os::Attr attr;
  attr.type = inode_->type;
  attr.ino = inode_->ino;
  attr.size = inode_->data.size();
  return attr;
}

Result<size_t> MemVnode::Read(uint64_t offset, size_t len, std::string* out) {
  if (inode_->type == os::VnodeType::kDirectory) {
    return IsDir("read on directory");
  }
  out->clear();
  if (offset >= inode_->data.size()) {
    return static_cast<size_t>(0);
  }
  size_t take = std::min<uint64_t>(len, inode_->data.size() - offset);
  fs_->ChargeDataRead(*inode_, offset, take);
  out->assign(inode_->data, offset, take);
  return take;
}

Result<size_t> MemVnode::Write(uint64_t offset, std::string_view data) {
  if (inode_->type == os::VnodeType::kDirectory) {
    return IsDir("write on directory");
  }
  fs_->ChargeDataWrite(*inode_, offset, data.size());
  fs_->TraceWrite(*inode_, offset, data);
  PASS_RETURN_IF_ERROR(fs_->DoWrite(*inode_, offset, data));
  return data.size();
}

Status MemVnode::Truncate(uint64_t length) {
  if (inode_->type == os::VnodeType::kDirectory) {
    return IsDir("truncate on directory");
  }
  if (length < inode_->data.size()) {
    inode_->data.resize(length);
  } else {
    inode_->data.resize(length, '\0');
  }
  fs_->ChargeJournal();
  fs_->Trace(FsOp{FsOp::Kind::kTruncate, inode_->PathFromRoot(), {}, {}, 0,
                  length});
  return Status::Ok();
}

Result<os::VnodeRef> MemVnode::Lookup(std::string_view name) {
  if (inode_->type != os::VnodeType::kDirectory) {
    return NotDir("lookup on non-directory");
  }
  auto it = inode_->children.find(std::string(name));
  if (it == inode_->children.end()) {
    return NotFound(os::JoinPath(inode_->PathFromRoot(), name));
  }
  return os::VnodeRef(std::make_shared<MemVnode>(fs_, it->second));
}

Result<os::VnodeRef> MemVnode::Create(std::string_view name,
                                      os::VnodeType type) {
  if (inode_->type != os::VnodeType::kDirectory) {
    return NotDir("create in non-directory");
  }
  PASS_ASSIGN_OR_RETURN(MemInodeRef child,
                        fs_->DoCreate(*inode_, name, type));
  fs_->ChargeJournal();
  fs_->Trace(FsOp{type == os::VnodeType::kDirectory ? FsOp::Kind::kMkdir
                                                    : FsOp::Kind::kCreate,
                  child->PathFromRoot(), {}, {}});
  return os::VnodeRef(std::make_shared<MemVnode>(fs_, std::move(child)));
}

Status MemVnode::Unlink(std::string_view name) {
  if (inode_->type != os::VnodeType::kDirectory) {
    return NotDir("unlink in non-directory");
  }
  auto it = inode_->children.find(std::string(name));
  if (it == inode_->children.end()) {
    return NotFound(os::JoinPath(inode_->PathFromRoot(), name));
  }
  std::string path = it->second->PathFromRoot();
  inode_->children.erase(it);
  fs_->ChargeJournal();
  fs_->Trace(FsOp{FsOp::Kind::kUnlink, path, {}, {}});
  return Status::Ok();
}

Result<std::vector<os::Dirent>> MemVnode::Readdir() {
  if (inode_->type != os::VnodeType::kDirectory) {
    return NotDir("readdir on non-directory");
  }
  std::vector<os::Dirent> out;
  out.reserve(inode_->children.size());
  for (const auto& [name, child] : inode_->children) {
    out.push_back(os::Dirent{name, child->type});
  }
  return out;
}

}  // namespace internal

MemFs::MemFs(sim::Env* env, sim::Disk* disk, sim::DiskZone data_zone,
             sim::DiskZone journal_zone, sim::DiskZone special_zone,
             MemFsOptions options)
    : env_(env),
      disk_(disk),
      data_zone_(data_zone),
      journal_zone_(journal_zone),
      special_zone_(special_zone),
      options_(std::move(options)) {
  root_ = std::make_shared<MemInode>();
  root_->ino = 1;
  root_->type = os::VnodeType::kDirectory;
}

os::VnodeRef MemFs::root() {
  return std::make_shared<MemVnode>(this, root_);
}

sim::DiskZone* MemFs::ZoneFor(const internal::MemInode& inode) {
  if (!options_.special_zone_prefix.empty() && special_zone_.size() > 0) {
    std::string path = inode.PathFromRoot();
    if (StartsWith(path, options_.special_zone_prefix)) {
      return &special_zone_;
    }
  }
  return &data_zone_;
}

void MemFs::ChargeJournal() {
  if (!options_.charge_disk || disk_ == nullptr) {
    return;
  }
  uint64_t addr = journal_zone_.Allocate(options_.journal_entry_bytes);
  disk_->Write(addr, options_.journal_entry_bytes);
}

void MemFs::ChargeDataWrite(internal::MemInode& inode, uint64_t offset,
                            uint64_t len) {
  if (!options_.charge_disk || disk_ == nullptr || len == 0) {
    return;
  }
  // Extend extents to cover [offset, offset+len).
  uint64_t end = offset + len;
  uint64_t allocated = 0;
  for (const auto& extent : inode.extents) {
    allocated = std::max(allocated, extent.file_offset + extent.length);
  }
  if (end > allocated) {
    uint64_t need = end - allocated;
    sim::DiskZone* zone = ZoneFor(inode);
    uint64_t addr = zone->Allocate(need);
    inode.extents.push_back(internal::Extent{allocated, addr, need});
  }
  // Charge the write at the extent containing `offset` (approximation: one
  // contiguous device write per syscall-level write).
  uint64_t addr = 0;
  for (const auto& extent : inode.extents) {
    if (offset >= extent.file_offset &&
        offset < extent.file_offset + extent.length) {
      addr = extent.disk_addr + (offset - extent.file_offset);
      break;
    }
  }
  disk_->Write(addr, len);
  inode.cached = true;
}

void MemFs::ChargeDataRead(internal::MemInode& inode, uint64_t offset,
                           uint64_t len) {
  if (!options_.charge_disk || disk_ == nullptr || len == 0) {
    return;
  }
  if (inode.cached) {
    return;  // page cache hit
  }
  uint64_t addr = inode.extents.empty() ? data_zone_.base()
                                        : inode.extents.front().disk_addr;
  disk_->Read(addr + offset, len);
  inode.cached = true;
}

void MemFs::Trace(FsOp op) {
  if (options_.enable_trace) {
    trace_.push_back(std::move(op));
  }
}

void MemFs::TraceWrite(const internal::MemInode& inode, uint64_t offset,
                       std::string_view data) {
  if (!options_.enable_trace) {
    return;
  }
  // Chunk writes so a crash can land mid-write (sector granularity).
  constexpr size_t kChunk = 4096;
  std::string path = inode.PathFromRoot();
  for (size_t pos = 0; pos < data.size(); pos += kChunk) {
    size_t n = std::min(kChunk, data.size() - pos);
    trace_.push_back(FsOp{FsOp::Kind::kWrite, path, {},
                          std::string(data.substr(pos, n)), offset + pos, 0});
  }
}

Result<MemInodeRef> MemFs::DoCreate(MemInode& parent, std::string_view name,
                                    os::VnodeType type) {
  std::string key(name);
  if (parent.children.count(key) > 0) {
    return Exists(os::JoinPath(parent.PathFromRoot(), name));
  }
  auto child = std::make_shared<MemInode>();
  child->ino = next_ino_++;
  child->type = type;
  child->parent = &parent;
  child->name = key;
  child->cached = true;  // freshly created: in page cache
  parent.children[key] = child;
  if (type == os::VnodeType::kDirectory) {
    ++dir_count_;
  } else {
    ++file_count_;
  }
  return child;
}

Status MemFs::DoWrite(MemInode& inode, uint64_t offset,
                      std::string_view data) {
  if (offset > inode.data.size()) {
    inode.data.resize(offset, '\0');
  }
  if (offset + data.size() > inode.data.size()) {
    inode.data.resize(offset + data.size());
  }
  inode.data.replace(offset, data.size(), data);
  return Status::Ok();
}

Status MemFs::Rename(const os::VnodeRef& parent_from,
                     std::string_view name_from, const os::VnodeRef& parent_to,
                     std::string_view name_to) {
  auto* from = dynamic_cast<MemVnode*>(parent_from.get());
  auto* to = dynamic_cast<MemVnode*>(parent_to.get());
  if (from == nullptr || to == nullptr) {
    return InvalidArgument("rename with foreign vnodes");
  }
  MemInodeRef src_dir = from->inode();
  MemInodeRef dst_dir = to->inode();
  auto it = src_dir->children.find(std::string(name_from));
  if (it == src_dir->children.end()) {
    return NotFound(os::JoinPath(src_dir->PathFromRoot(), name_from));
  }
  MemInodeRef victim = it->second;
  std::string old_path = victim->PathFromRoot();
  // Replace any existing target (rename-over, the patch(1) idiom).
  auto existing = dst_dir->children.find(std::string(name_to));
  if (existing != dst_dir->children.end()) {
    if (existing->second->type == os::VnodeType::kDirectory) {
      return IsDir("rename over directory");
    }
    --file_count_;
    dst_dir->children.erase(existing);
  }
  src_dir->children.erase(it);
  victim->parent = dst_dir.get();
  victim->name = std::string(name_to);
  dst_dir->children[victim->name] = victim;
  ChargeJournal();
  Trace(FsOp{FsOp::Kind::kRename, old_path, victim->PathFromRoot(), {}});
  return Status::Ok();
}

Status MemFs::Sync() {
  if (options_.charge_disk && disk_ != nullptr) {
    disk_->Sync();
  }
  return Status::Ok();
}

os::FsStats MemFs::stats() const {
  os::FsStats stats;
  stats.files = file_count_;
  stats.directories = dir_count_;
  stats.bytes_data = BytesUnder("/");
  return stats;
}

Result<MemInodeRef> MemFs::WalkTo(std::string_view path) const {
  MemInodeRef node = root_;
  for (const std::string& comp : os::PathComponents(path)) {
    if (node->type != os::VnodeType::kDirectory) {
      return NotDir(std::string(path));
    }
    auto it = node->children.find(comp);
    if (it == node->children.end()) {
      return NotFound(std::string(path));
    }
    node = it->second;
  }
  return node;
}

Status MemFs::SeedDir(std::string_view path) {
  MemInodeRef node = root_;
  for (const std::string& comp : os::PathComponents(path)) {
    auto it = node->children.find(comp);
    if (it != node->children.end()) {
      node = it->second;
      continue;
    }
    PASS_ASSIGN_OR_RETURN(MemInodeRef child,
                          DoCreate(*node, comp, os::VnodeType::kDirectory));
    node = child;
  }
  return Status::Ok();
}

Status MemFs::SeedFile(std::string_view path, std::string_view data) {
  PASS_RETURN_IF_ERROR(SeedDir(os::DirName(path)));
  PASS_ASSIGN_OR_RETURN(MemInodeRef dir, WalkTo(os::DirName(path)));
  std::string leaf = os::BaseName(path);
  MemInodeRef file;
  auto it = dir->children.find(leaf);
  if (it != dir->children.end()) {
    file = it->second;
  } else {
    PASS_ASSIGN_OR_RETURN(file, DoCreate(*dir, leaf, os::VnodeType::kFile));
  }
  file->data = std::string(data);
  file->cached = false;  // seeded files are cold: first read hits the disk
  return Status::Ok();
}

Result<std::string> MemFs::ReadFileRaw(std::string_view path) const {
  PASS_ASSIGN_OR_RETURN(MemInodeRef node, WalkTo(path));
  if (node->type == os::VnodeType::kDirectory) {
    return IsDir(std::string(path));
  }
  return node->data;
}

Status MemFs::WriteFileRaw(std::string_view path, std::string_view data) {
  PASS_RETURN_IF_ERROR(SeedDir(os::DirName(path)));
  PASS_ASSIGN_OR_RETURN(MemInodeRef dir, WalkTo(os::DirName(path)));
  std::string leaf = os::BaseName(path);
  MemInodeRef file;
  auto it = dir->children.find(leaf);
  if (it != dir->children.end()) {
    file = it->second;
  } else {
    PASS_ASSIGN_OR_RETURN(file, DoCreate(*dir, leaf, os::VnodeType::kFile));
  }
  file->data = std::string(data);
  return Status::Ok();
}

Status MemFs::UnlinkRaw(std::string_view path) {
  PASS_ASSIGN_OR_RETURN(MemInodeRef dir, WalkTo(os::DirName(path)));
  std::string leaf = os::BaseName(path);
  auto it = dir->children.find(leaf);
  if (it == dir->children.end()) {
    return NotFound(std::string(path));
  }
  if (it->second->type == os::VnodeType::kDirectory) {
    --dir_count_;
  } else {
    --file_count_;
  }
  dir->children.erase(it);
  return Status::Ok();
}

Result<std::vector<std::string>> MemFs::ListDirRaw(
    std::string_view path) const {
  PASS_ASSIGN_OR_RETURN(MemInodeRef node, WalkTo(path));
  if (node->type != os::VnodeType::kDirectory) {
    return NotDir(std::string(path));
  }
  std::vector<std::string> names;
  names.reserve(node->children.size());
  for (const auto& [name, child] : node->children) {
    names.push_back(name);
  }
  return names;
}

bool MemFs::ExistsRaw(std::string_view path) const {
  return WalkTo(path).ok();
}

Result<os::VnodeRef> MemFs::ResolvePath(std::string_view path) {
  PASS_ASSIGN_OR_RETURN(MemInodeRef node, WalkTo(path));
  return os::VnodeRef(std::make_shared<MemVnode>(this, std::move(node)));
}

uint64_t MemFs::BytesUnder(std::string_view path) const {
  auto start = WalkTo(path);
  if (!start.ok()) {
    return 0;
  }
  uint64_t total = 0;
  std::vector<MemInodeRef> stack{*start};
  while (!stack.empty()) {
    MemInodeRef node = stack.back();
    stack.pop_back();
    if (node->type == os::VnodeType::kDirectory) {
      for (const auto& [name, child] : node->children) {
        stack.push_back(child);
      }
    } else {
      total += node->data.size();
    }
  }
  return total;
}

Status MemFs::ReplayInto(MemFs* target, size_t op_count) const {
  PASS_CHECK(op_count <= trace_.size());
  for (size_t i = 0; i < op_count; ++i) {
    const FsOp& op = trace_[i];
    switch (op.kind) {
      case FsOp::Kind::kMkdir:
        PASS_RETURN_IF_ERROR(target->SeedDir(op.path));
        break;
      case FsOp::Kind::kCreate:
        PASS_RETURN_IF_ERROR(target->WriteFileRaw(op.path, ""));
        break;
      case FsOp::Kind::kWrite: {
        auto node = target->WalkTo(op.path);
        if (!node.ok()) {
          // File may have been created without a trace entry (seeded):
          PASS_RETURN_IF_ERROR(target->WriteFileRaw(op.path, ""));
          node = target->WalkTo(op.path);
        }
        PASS_RETURN_IF_ERROR(
            target->DoWrite(**node, op.offset, op.data));
        break;
      }
      case FsOp::Kind::kTruncate: {
        PASS_ASSIGN_OR_RETURN(MemInodeRef node, target->WalkTo(op.path));
        node->data.resize(op.length, '\0');
        break;
      }
      case FsOp::Kind::kUnlink:
        PASS_RETURN_IF_ERROR(target->UnlinkRaw(op.path));
        break;
      case FsOp::Kind::kRename: {
        PASS_ASSIGN_OR_RETURN(std::string data,
                              target->ReadFileRaw(op.path));
        PASS_RETURN_IF_ERROR(target->UnlinkRaw(op.path));
        PASS_RETURN_IF_ERROR(target->WriteFileRaw(op.path2, data));
        break;
      }
    }
  }
  return Status::Ok();
}

}  // namespace pass::fs
