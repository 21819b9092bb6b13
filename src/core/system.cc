#include "src/core/system.h"

#include "src/os/path.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace pass::core {

PassSystem::PassSystem(sim::Env* env, os::Kernel* kernel,
                       PassSystemOptions options)
    : env_(env),
      kernel_(kernel),
      options_(options),
      analyzer_(options.cycle_algorithm) {
  if (options.allocator != nullptr) {
    allocator_ = options.allocator;
  } else {
    owned_allocator_ = std::make_unique<PnodeAllocator>(options.shard);
    allocator_ = owned_allocator_.get();
  }
  if (kernel_ != nullptr) {
    kernel_->set_interceptor(this);
  }
}

void PassSystem::AttachVolume(os::FileSystem* volume) {
  PASS_CHECK(volume->provenance_capable());
  volumes_.push_back(volume);
}

void PassSystem::ChargeRecordCpu(size_t records) {
  env_->ChargeCpu(options_.record_cpu_ns * records);
}

ObjState* PassSystem::FindState(PnodeId pnode) {
  auto it = by_pnode_.find(pnode);
  return it == by_pnode_.end() ? nullptr : &it->second;
}

Analyzer::Emit PassSystem::RouterInto(Bundle* bundle) {
  return [this, bundle](const ObjectRef& subject, const Record& record) {
    ObjState* state = FindState(subject.pnode);
    bool persistent = state != nullptr && state->persistent;
    if (!persistent) {
      distributor_.Cache(subject, record);
      return;
    }
    if (bundle != nullptr) {
      AppendToBundle(bundle, subject, record);
    } else {
      AppendToBundle(&pending_[state->volume], subject, record);
    }
  };
}

Analyzer::FreezeFn PassSystem::FreezeFnFor(ObjState& state) {
  if (state.vnode == nullptr) {
    return Analyzer::FreezeFn();  // local version counting
  }
  os::VnodeRef vnode = state.vnode;
  return [vnode](PnodeId) -> Version {
    auto frozen = vnode->PassFreeze();
    PASS_CHECK(frozen.ok());
    return *frozen;
  };
}

Status PassSystem::FlushBundle(ObjState& state, Bundle bundle) {
  if (bundle.empty()) {
    return Status::Ok();
  }
  PASS_CHECK(state.volume != nullptr);
  return state.volume->PassProv(bundle);
}

void PassSystem::FlushPending() {
  if (pending_.empty()) {
    return;
  }
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& [volume, bundle] : pending) {
    if (!bundle.empty()) {
      Status status = volume->PassProv(bundle);
      if (!status.ok()) {
        PASS_LOG(Warning) << "provenance-only flush failed: "
                          << status.ToString();
      }
    }
  }
}

ObjState& PassSystem::ProcState(os::Process& proc) {
  auto it = pid_map_.find(proc.pid());
  if (it != pid_map_.end()) {
    return by_pnode_[it->second];
  }
  PnodeId pnode = allocator_->Allocate();
  pid_map_[proc.pid()] = pnode;
  ObjState& state = by_pnode_[pnode];
  state.pnode = pnode;
  state.kind = ObjectKind::kProcess;
  state.persistent = false;
  state.name = proc.name();
  analyzer_.Register(pnode);
  auto router = RouterInto(nullptr);
  analyzer_.AddAttribute(pnode, Record::Type("PROC"), router);
  analyzer_.AddAttribute(pnode, Record::Name(proc.name()), router);
  analyzer_.AddAttribute(
      pnode, Record::Of(Attr::kPid, static_cast<int64_t>(proc.pid())),
      router);
  ChargeRecordCpu(3);
  return state;
}

ObjState& PassSystem::VnodeState(os::FileSystem* fs, const os::VnodeRef& vnode,
                                 const std::string& path) {
  // PASS-volume files carry their pnode in the vnode.
  PnodeId pnode = vnode->pnode();
  if (pnode != kInvalidPnode) {
    ObjState* existing = FindState(pnode);
    if (existing != nullptr) {
      return *existing;
    }
    ObjState& state = by_pnode_[pnode];
    state.pnode = pnode;
    state.kind = ObjectKind::kFile;
    state.persistent = true;
    state.volume = fs;
    state.vnode = vnode;
    state.name = path;
    analyzer_.Register(pnode, vnode->version());
    auto router = RouterInto(nullptr);
    analyzer_.AddAttribute(pnode, Record::Type("FILE"), router);
    if (!path.empty()) {
      analyzer_.AddAttribute(pnode, Record::Name(path), router);
    }
    ChargeRecordCpu(2);
    return state;
  }
  // Foreign (non-PASS volume) file: identify by (filesystem, inode).
  auto attr = vnode->Getattr();
  os::Ino ino = attr.ok() ? attr->ino : 0;
  auto key = std::make_pair(fs, ino);
  auto it = file_map_.find(key);
  if (it != file_map_.end()) {
    return by_pnode_[it->second];
  }
  pnode = allocator_->Allocate();
  file_map_[key] = pnode;
  ObjState& state = by_pnode_[pnode];
  state.pnode = pnode;
  state.kind = ObjectKind::kForeignFile;
  state.persistent = false;
  state.volume = nullptr;
  state.name = path;
  analyzer_.Register(pnode);
  auto router = RouterInto(nullptr);
  analyzer_.AddAttribute(pnode, Record::Type("FILE"), router);
  if (!path.empty()) {
    analyzer_.AddAttribute(pnode, Record::Name(path), router);
  }
  ChargeRecordCpu(2);
  return state;
}

ObjState& PassSystem::PipeState(const os::VnodeRef& vnode) {
  auto it = pipe_map_.find(vnode.get());
  if (it != pipe_map_.end()) {
    return by_pnode_[it->second];
  }
  PnodeId pnode = allocator_->Allocate();
  pipe_map_[vnode.get()] = pnode;
  ObjState& state = by_pnode_[pnode];
  state.pnode = pnode;
  state.kind = ObjectKind::kPipe;
  state.persistent = false;
  state.vnode = vnode;
  state.name = "pipe";
  analyzer_.Register(pnode);
  analyzer_.AddAttribute(pnode, Record::Type("PIPE"), RouterInto(nullptr));
  ChargeRecordCpu(1);
  return state;
}

ObjState& PassSystem::FileState(os::OpenFile& file) {
  if (file.vnode->type() == os::VnodeType::kPipe) {
    return PipeState(file.vnode);
  }
  return VnodeState(file.fs, file.vnode, file.path);
}

// ---- Interceptor + observer -------------------------------------------------

Result<size_t> PassSystem::InterceptRead(os::Process& proc, os::OpenFile& file,
                                         uint64_t offset, size_t len,
                                         std::string* out) {
  ++observer_stats_.reads;
  ObjState& fstate = FileState(file);
  ObjState& pstate = ProcState(proc);
  size_t n = 0;
  ObjectRef source;
  if (fstate.persistent) {
    PASS_ASSIGN_OR_RETURN(os::PassReadInfo info,
                          file.vnode->PassRead(offset, len, out));
    n = info.bytes;
    source = info.source;
  } else {
    PASS_ASSIGN_OR_RETURN(n, file.vnode->Read(offset, len, out));
    source = analyzer_.CurrentRef(fstate.pnode);
  }
  // P -> A: the process depends on what it read (§5.1). Process freezes use
  // local version counting.
  analyzer_.AddDependencyRef(pstate.pnode, source, RouterInto(nullptr));
  ChargeRecordCpu(1);
  FlushPending();
  return n;
}

Result<size_t> PassSystem::InterceptWrite(os::Process& proc,
                                          os::OpenFile& file, uint64_t offset,
                                          std::string_view data) {
  ++observer_stats_.writes;
  ObjState& fstate = FileState(file);
  ObjState& pstate = ProcState(proc);
  if (!fstate.persistent) {
    // Non-PASS target: provenance is cached by the distributor until the
    // object enters the ancestry of a persistent object.
    analyzer_.AddDependency(fstate.pnode, pstate.pnode, RouterInto(nullptr),
                            FreezeFnFor(fstate));
    ChargeRecordCpu(1);
    FlushPending();
    return file.vnode->Write(offset, data);
  }
  // PASS target: build the bundle — the new ancestry edge plus the cached
  // provenance of the writing process and its non-persistent ancestors —
  // and couple it with the data through pass_write.
  Bundle bundle;
  analyzer_.AddDependency(fstate.pnode, pstate.pnode, RouterInto(&bundle),
                          FreezeFnFor(fstate));
  distributor_.DrainClosure(pstate.pnode, &bundle);
  ChargeRecordCpu(BundleRecordCount(bundle) + 1);
  FlushPending();
  return file.vnode->PassWrite(offset, data, bundle);
}

void PassSystem::OnProcessStart(os::Process& proc, const os::Process* parent) {
  ++observer_stats_.process_starts;
  ObjState& child = ProcState(proc);
  if (parent != nullptr) {
    ObjState& parent_state = ProcState(*const_cast<os::Process*>(parent));
    analyzer_.AddDependency(child.pnode, parent_state.pnode,
                            RouterInto(nullptr));
    ChargeRecordCpu(1);
  }
  FlushPending();
}

void PassSystem::OnExec(os::Process& proc, const std::string& path,
                        const os::VnodeRef& binary) {
  ++observer_stats_.execs;
  ObjState& pstate = ProcState(proc);
  auto router = RouterInto(nullptr);
  analyzer_.AddAttribute(pstate.pnode, Record::Name(proc.name()), router);
  analyzer_.AddAttribute(pstate.pnode,
                         Record::Of(Attr::kArgv, Join(proc.argv(), " ")),
                         router);
  size_t charged = 2;
  for (const std::string& env_entry : proc.env()) {
    analyzer_.AddAttribute(pstate.pnode, Record::Of(Attr::kEnv, env_entry),
                           router);
    ++charged;
  }
  if (binary != nullptr) {
    auto mount = kernel_->vfs().MountOf(path);
    os::FileSystem* fs = mount.ok() ? mount->first : nullptr;
    ObjState& bstate = VnodeState(fs, binary, path);
    analyzer_.AddDependency(pstate.pnode, bstate.pnode, router);
    ++charged;
  }
  ChargeRecordCpu(charged);
  FlushPending();
}

void PassSystem::OnExit(os::Process& proc) {
  ++observer_stats_.exits;
  // Cached provenance is retained: the process may already be part of
  // ancestry chains that flush later.
}

void PassSystem::OnOpen(os::Process& proc, os::OpenFile& file) {
  ++observer_stats_.opens;
  if (file.vnode->type() != os::VnodeType::kPipe) {
    (void)FileState(file);  // assign identity, emit NAME/TYPE once
  }
  FlushPending();
}

void PassSystem::OnMmap(os::Process& proc, os::OpenFile& file, bool writable) {
  ObjState& fstate = FileState(file);
  ObjState& pstate = ProcState(proc);
  auto router = RouterInto(nullptr);
  analyzer_.AddDependency(pstate.pnode, fstate.pnode, router);
  if (writable) {
    analyzer_.AddDependency(fstate.pnode, pstate.pnode, router,
                            FreezeFnFor(fstate));
  }
  ChargeRecordCpu(writable ? 2 : 1);
  FlushPending();
}

void PassSystem::OnPipe(os::Process& proc, os::OpenFile& read_end,
                        os::OpenFile& write_end) {
  ++observer_stats_.pipes;
  (void)PipeState(read_end.vnode);
  FlushPending();
}

void PassSystem::OnRename(const std::string& from, const std::string& to) {
  ++observer_stats_.renames;
  auto resolved = kernel_->vfs().Resolve(to);
  if (!resolved.ok()) {
    return;
  }
  ObjState& state = VnodeState(resolved->fs, resolved->vnode, to);
  analyzer_.AddAttribute(state.pnode, Record::Name(to), RouterInto(nullptr));
  ChargeRecordCpu(1);
  FlushPending();
}

void PassSystem::OnDropInode(os::FileSystem* fs, const std::string& path,
                             const os::VnodeRef& vnode) {
  ObjState& state = VnodeState(fs, vnode, path);
  state.dropped = true;
  // Provenance outlives the object (deleted files can still be queried);
  // only the analyzer's working state is released.
  analyzer_.Drop(state.pnode);
}

// ---- DPAPI --------------------------------------------------------------

Result<PassObject> PassSystem::Mkobj(os::FileSystem* volume) {
  if (volume == nullptr) {
    if (volumes_.empty()) {
      return Unavailable("pass_mkobj: no provenance-aware volume attached");
    }
    volume = volumes_.front();
  }
  PASS_ASSIGN_OR_RETURN(os::VnodeRef vnode, volume->PassMkobj());
  PnodeId pnode = vnode->pnode();
  ObjState& state = by_pnode_[pnode];
  state.pnode = pnode;
  state.kind = ObjectKind::kPhantom;
  state.persistent = false;  // cached until ancestor of persistent / synced
  state.volume = volume;
  state.vnode = vnode;
  analyzer_.Register(pnode, vnode->version());
  return PassObject{pnode, vnode};
}

Result<PassObject> PassSystem::Reviveobj(PnodeId pnode, Version version,
                                         os::FileSystem* volume) {
  if (volume == nullptr) {
    if (volumes_.empty()) {
      return Unavailable("pass_reviveobj: no volume attached");
    }
    volume = volumes_.front();
  }
  PASS_ASSIGN_OR_RETURN(os::VnodeRef vnode,
                        volume->PassReviveobj(pnode, version));
  ObjState& state = by_pnode_[pnode];
  if (state.pnode == kInvalidPnode) {
    state.pnode = pnode;
    state.kind = ObjectKind::kPhantom;
    state.persistent = false;
    state.volume = volume;
    state.vnode = vnode;
    analyzer_.Register(pnode, vnode->version());
  }
  return PassObject{pnode, vnode};
}

void PassSystem::DiscloseCommon(os::Pid pid, ObjState& target,
                                const std::vector<Record>& records,
                                Bundle* bundle) {
  auto router = RouterInto(bundle);
  auto freeze = FreezeFnFor(target);
  // The observer adds the dependency between the disclosing application and
  // the object (§5.3).
  auto proc = kernel_->GetProcess(pid);
  if (proc.ok()) {
    ObjState& pstate = ProcState(**proc);
    analyzer_.AddDependency(target.pnode, pstate.pnode, router, freeze);
  }
  for (const Record& record : records) {
    if (record.attr == Attr::kInput) {
      if (const auto* ref = std::get_if<ObjectRef>(&record.value)) {
        analyzer_.AddDependencyRef(target.pnode, *ref, router, freeze);
        continue;
      }
    }
    analyzer_.AddAttribute(target.pnode, record, router);
  }
  ChargeRecordCpu(records.size() + 1);
}

Status PassSystem::DiscloseRecords(os::Pid pid, const ObjectRef& target,
                                   const std::vector<Record>& records) {
  ObjState* state = FindState(target.pnode);
  if (state == nullptr) {
    return NotFound("disclose: unknown object " + target.ToString());
  }
  Bundle bundle;
  DiscloseCommon(pid, *state, records, &bundle);
  Status flushed = FlushBundle(*state, std::move(bundle));
  FlushPending();
  return flushed;
}

Status PassSystem::DiscloseObjectRecords(os::Pid pid, const PassObject& target,
                                         const std::vector<Record>& records) {
  return DiscloseRecords(pid, ObjectRef{target.pnode, 0}, records);
}

Result<size_t> PassSystem::DiscloseFileWrite(
    os::Pid pid, os::Fd fd, std::string_view data,
    const std::vector<Record>& records) {
  PASS_ASSIGN_OR_RETURN(os::Process * proc, kernel_->GetProcess(pid));
  PASS_ASSIGN_OR_RETURN(os::OpenFileRef file, proc->GetFd(fd));
  if (!file->writable()) {
    return BadFd("pass_write: fd not open for writing");
  }
  ++observer_stats_.writes;
  ObjState& fstate = FileState(*file);
  Bundle bundle;
  DiscloseCommon(pid, fstate, records, &bundle);
  if (fstate.persistent) {
    // Pull in the cached provenance of every disclosed ancestor and of the
    // writing application.
    for (const Record& record : records) {
      if (record.attr == Attr::kInput) {
        if (const auto* ref = std::get_if<ObjectRef>(&record.value)) {
          distributor_.DrainClosure(ref->pnode, &bundle);
        }
      }
    }
    auto pit = pid_map_.find(pid);
    if (pit != pid_map_.end()) {
      distributor_.DrainClosure(pit->second, &bundle);
    }
  }
  uint64_t offset = file->offset;
  if ((file->flags & os::kOpenAppend) != 0) {
    PASS_ASSIGN_OR_RETURN(os::Attr attr, file->vnode->Getattr());
    offset = attr.size;
  }
  size_t n = 0;
  if (fstate.persistent) {
    PASS_ASSIGN_OR_RETURN(n, file->vnode->PassWrite(offset, data, bundle));
  } else {
    PASS_ASSIGN_OR_RETURN(n, file->vnode->Write(offset, data));
  }
  file->offset = offset + n;
  FlushPending();
  return n;
}

Result<DpapiReadResult> PassSystem::DpapiRead(os::Pid pid, os::Fd fd,
                                              size_t len) {
  PASS_ASSIGN_OR_RETURN(os::Process * proc, kernel_->GetProcess(pid));
  PASS_ASSIGN_OR_RETURN(os::OpenFileRef file, proc->GetFd(fd));
  if (!file->readable()) {
    return BadFd("pass_read: fd not open for reading");
  }
  DpapiReadResult result;
  PASS_ASSIGN_OR_RETURN(
      size_t n, InterceptRead(*proc, *file, file->offset, len, &result.data));
  ObjState& fstate = FileState(*file);
  result.source = analyzer_.CurrentRef(fstate.pnode);
  if (fstate.persistent) {
    result.source = ObjectRef{fstate.pnode, file->vnode->version()};
  }
  file->offset += n;
  return result;
}

Result<Version> PassSystem::FreezeObject(const PassObject& object) {
  ObjState* state = FindState(object.pnode);
  if (state == nullptr) {
    return NotFound("pass_freeze: unknown object");
  }
  Version version =
      analyzer_.Freeze(object.pnode, RouterInto(nullptr), FreezeFnFor(*state));
  FlushPending();
  return version;
}

Status PassSystem::SyncObject(const PassObject& object) {
  ObjState* state = FindState(object.pnode);
  if (state == nullptr) {
    return NotFound("pass_sync: unknown object");
  }
  PASS_CHECK(state->volume != nullptr);
  Bundle bundle;
  distributor_.DrainClosure(object.pnode, &bundle);
  if (bundle.empty()) {
    return Status::Ok();
  }
  return state->volume->PassProv(bundle);
}

Result<ObjectRef> PassSystem::RefOfPath(std::string_view path) {
  PASS_ASSIGN_OR_RETURN(os::ResolvedPath resolved,
                        kernel_->vfs().Resolve(path));
  ObjState& state =
      VnodeState(resolved.fs, resolved.vnode, resolved.path);
  if (state.persistent) {
    return ObjectRef{state.pnode, state.vnode->version()};
  }
  return analyzer_.CurrentRef(state.pnode);
}

ObjectRef PassSystem::RefOfPid(os::Pid pid) {
  auto it = pid_map_.find(pid);
  if (it == pid_map_.end()) {
    return ObjectRef{};
  }
  return analyzer_.CurrentRef(it->second);
}

Result<ObjectRef> PassSystem::RefOfObject(const PassObject& object) const {
  if (!object.valid()) {
    return InvalidArgument("invalid pass object");
  }
  return analyzer_.CurrentRef(object.pnode);
}

}  // namespace pass::core
