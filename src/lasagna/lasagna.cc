#include "src/lasagna/lasagna.h"

#include "src/os/path.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace pass::lasagna {

using internal::LasagnaVnode;
using internal::PhantomVnode;

namespace internal {

Result<size_t> LasagnaVnode::Read(uint64_t offset, size_t len,
                                  std::string* out) {
  PASS_ASSIGN_OR_RETURN(size_t n, lower_->Read(offset, len, out));
  fs_->ChargeCopy(n);
  return n;
}

Result<size_t> LasagnaVnode::Write(uint64_t offset, std::string_view data) {
  // A plain write on a PASS volume still satisfies WAP: it is a pass_write
  // with an empty bundle, so the (empty) transaction brackets the data and
  // no unprovenanced data can appear on disk.
  return PassWrite(offset, data, core::Bundle());
}

Status LasagnaVnode::Truncate(uint64_t length) { return lower_->Truncate(length); }

Result<os::VnodeRef> LasagnaVnode::Lookup(std::string_view name) {
  if (is_root_ && ("/" + std::string(name)) == fs_->options_.log_dir) {
    return NotFound("hidden: " + std::string(name));
  }
  PASS_ASSIGN_OR_RETURN(os::VnodeRef lower, lower_->Lookup(name));
  return fs_->WrapLower(std::move(lower), /*is_root=*/false);
}

Result<os::VnodeRef> LasagnaVnode::Create(std::string_view name,
                                          os::VnodeType type) {
  PASS_ASSIGN_OR_RETURN(os::VnodeRef lower, lower_->Create(name, type));
  PASS_ASSIGN_OR_RETURN(os::Attr attr, lower->Getattr());
  // Assign the pnode at creation time (§5.2).
  fs_->MetaOf(attr.ino);
  return fs_->WrapLower(std::move(lower), /*is_root=*/false);
}

Status LasagnaVnode::Unlink(std::string_view name) {
  return lower_->Unlink(name);
}

Result<std::vector<os::Dirent>> LasagnaVnode::Readdir() {
  PASS_ASSIGN_OR_RETURN(std::vector<os::Dirent> entries, lower_->Readdir());
  if (is_root_) {
    std::string hidden = os::BaseName(fs_->options_.log_dir);
    std::erase_if(entries,
                  [&](const os::Dirent& e) { return e.name == hidden; });
  }
  return entries;
}

Result<os::PassReadInfo> LasagnaVnode::PassRead(uint64_t offset, size_t len,
                                                std::string* out) {
  PASS_ASSIGN_OR_RETURN(size_t n, lower_->Read(offset, len, out));
  fs_->ChargeCopy(n);
  ++fs_->lasagna_stats_.pass_reads;
  LasagnaFs::FileMeta& meta = fs_->MetaOf(ino_);
  return os::PassReadInfo{core::ObjectRef{meta.pnode, meta.version}, n};
}

Result<size_t> LasagnaVnode::PassWrite(uint64_t offset, std::string_view data,
                                       const core::Bundle& bundle) {
  LasagnaFs::FileMeta& meta = fs_->MetaOf(ino_);
  // Reconstruct the lower path for the recovery descriptor.
  auto* lower_mem = dynamic_cast<fs::internal::MemVnode*>(lower_.get());
  std::string path =
      lower_mem != nullptr ? lower_mem->inode()->PathFromRoot() : "";
  PASS_RETURN_IF_ERROR(fs_->AppendTxn(
      bundle, core::ObjectRef{meta.pnode, meta.version}, path, offset, data));
  // WAP: force the buffered provenance onto the disk before the data write.
  PASS_RETURN_IF_ERROR(fs_->FlushLogBuffer());
  PASS_ASSIGN_OR_RETURN(size_t n, lower_->Write(offset, data));
  fs_->ChargeCopy(n);
  ++fs_->lasagna_stats_.pass_writes;
  fs_->lasagna_stats_.data_bytes_written += n;
  return n;
}

Result<core::Version> LasagnaVnode::PassFreeze() {
  LasagnaFs::FileMeta& meta = fs_->MetaOf(ino_);
  ++meta.version;
  ++fs_->lasagna_stats_.freezes;
  return meta.version;
}

core::PnodeId LasagnaVnode::pnode() const {
  return fs_->MetaOf(ino_).pnode;
}

core::Version LasagnaVnode::version() const {
  return fs_->MetaOf(ino_).version;
}

Result<size_t> PhantomVnode::PassWrite(uint64_t offset, std::string_view data,
                                       const core::Bundle& bundle) {
  if (!data.empty()) {
    return InvalidArgument("pass_write with data on a phantom object");
  }
  PASS_RETURN_IF_ERROR(fs_->AppendTxn(bundle,
                                      core::ObjectRef{pnode_, version_},
                                      /*data_path=*/"", 0, ""));
  return static_cast<size_t>(0);
}

Result<core::Version> PhantomVnode::PassFreeze() {
  ++version_;
  ++fs_->lasagna_stats_.freezes;
  return version_;
}

}  // namespace internal

LasagnaFs::LasagnaFs(sim::Env* env, fs::MemFs* lower,
                     core::PnodeAllocator* allocator, LasagnaOptions options)
    : env_(env),
      lower_(lower),
      allocator_(allocator),
      options_(std::move(options)) {
  (void)lower_->SeedDir(options_.log_dir);
  // The allocator's home hint labels this volume's metrics: in a cluster
  // every shard's Lasagna shares one Env (one registry), so the label keeps
  // their series apart.
  obs::Labels labels{
      {"shard", std::to_string(core::PnodeShard(allocator_->peek_next()))}};
  obs::MetricRegistry& metrics = env_->obs().metrics();
  txn_ns_hist_ = &metrics.GetHistogram("lasagna.txn_ns", labels);
  log_flush_ns_hist_ = &metrics.GetHistogram("lasagna.log_flush_ns", labels);
  log_flush_bytes_ = &metrics.GetCounter("lasagna.log_flush_bytes", labels);
}

void LasagnaFs::ChargeCopy(size_t bytes) {
  env_->ChargeCpu(static_cast<sim::Nanos>(options_.stack_copy_ns_per_byte *
                                          static_cast<double>(bytes)));
}

LasagnaFs::FileMeta& LasagnaFs::MetaOf(os::Ino ino) {
  auto [it, inserted] = meta_.try_emplace(ino);
  if (inserted) {
    it->second.pnode = allocator_->Allocate();
    it->second.version = 0;
  }
  return it->second;
}

os::VnodeRef LasagnaFs::WrapLower(os::VnodeRef lower, bool is_root) {
  auto attr = lower->Getattr();
  os::Ino ino = attr.ok() ? attr->ino : 0;
  auto it = vnode_cache_.find(ino);
  if (it != vnode_cache_.end()) {
    return it->second;
  }
  if (lower->type() == os::VnodeType::kFile) {
    MetaOf(ino);  // ensure identity for pre-existing (seeded) files
  }
  os::VnodeRef wrapped =
      std::make_shared<LasagnaVnode>(this, std::move(lower), ino, is_root);
  vnode_cache_[ino] = wrapped;
  return wrapped;
}

os::VnodeRef LasagnaFs::root() {
  return WrapLower(lower_->root(), /*is_root=*/true);
}

Status LasagnaFs::Rename(const os::VnodeRef& parent_from,
                         std::string_view name_from,
                         const os::VnodeRef& parent_to,
                         std::string_view name_to) {
  auto* from = dynamic_cast<LasagnaVnode*>(parent_from.get());
  auto* to = dynamic_cast<LasagnaVnode*>(parent_to.get());
  if (from == nullptr || to == nullptr) {
    return InvalidArgument("rename with foreign vnodes");
  }
  // The pnode follows the inode: provenance stays attached across renames
  // (the PA-links attribution use case, §3.2).
  return lower_->Rename(from->lower(), name_from, to->lower(), name_to);
}

Status LasagnaFs::Sync() {
  PASS_RETURN_IF_ERROR(FlushLogBuffer());
  return lower_->Sync();
}

os::FsStats LasagnaFs::stats() const {
  os::FsStats stats = lower_->stats();
  // Exclude the provenance log from the data accounting.
  stats.bytes_data -= lower_->BytesUnder(options_.log_dir);
  return stats;
}

Result<os::VnodeRef> LasagnaFs::PassMkobj() {
  core::PnodeId pnode = allocator_->Allocate();
  auto phantom = std::make_shared<PhantomVnode>(this, pnode);
  phantoms_[pnode] = phantom;
  return os::VnodeRef(phantom);
}

Result<os::VnodeRef> LasagnaFs::PassReviveobj(core::PnodeId pnode,
                                              core::Version version) {
  // The volume only needs enough state to verify the pnode is valid
  // (§6.1.2); phantom vnodes are kept by pnode.
  auto it = phantoms_.find(pnode);
  if (it == phantoms_.end()) {
    return NotFound(StrFormat("pass_reviveobj: unknown pnode %llu",
                              static_cast<unsigned long long>(pnode)));
  }
  if (it->second->version() < version) {
    return InvalidArgument("pass_reviveobj: version from the future");
  }
  return os::VnodeRef(it->second);
}

Status LasagnaFs::PassProv(const core::Bundle& bundle) {
  return AppendTxn(bundle, core::ObjectRef{}, /*data_path=*/"", 0, "");
}

Result<uint64_t> LasagnaFs::BeginExternalTxn() {
  uint64_t txn_id = next_txn_++;
  std::string frames;
  EncodeLogEntry(&frames,
                 LogEntry{core::ObjectRef{}, core::Record::Of(
                                                 core::Attr::kBeginTxn,
                                                 static_cast<int64_t>(txn_id))});
  PASS_RETURN_IF_ERROR(AppendToLog(frames));
  open_external_txns_.insert(txn_id);
  lasagna_stats_.prov_bytes_logged += frames.size();
  return txn_id;
}

Status LasagnaFs::AppendExternalTxn(uint64_t txn_id,
                                    const core::Bundle& bundle) {
  if (open_external_txns_.count(txn_id) == 0) {
    return InvalidArgument("unknown protocol transaction");
  }
  std::string frames;
  size_t records = 0;
  for (const core::BundleEntry& entry : bundle) {
    for (const core::Record& record : entry.records) {
      EncodeLogEntry(&frames, LogEntry{entry.target, record});
      ++records;
    }
  }
  PASS_RETURN_IF_ERROR(AppendToLog(frames));
  lasagna_stats_.records_logged += records;
  lasagna_stats_.prov_bytes_logged += frames.size();
  return Status::Ok();
}

Status LasagnaFs::CommitExternalTxn(uint64_t txn_id,
                                    const os::VnodeRef& target,
                                    uint64_t offset, std::string_view data) {
  if (open_external_txns_.erase(txn_id) == 0) {
    return InvalidArgument("unknown protocol transaction");
  }
  TxnDescriptor descriptor;
  descriptor.txn_id = txn_id;
  descriptor.offset = offset;
  descriptor.length = data.size();
  descriptor.data_md5 = Md5::Hash(data);
  core::ObjectRef target_ref;
  auto* lasagna_vnode = dynamic_cast<internal::LasagnaVnode*>(target.get());
  if (lasagna_vnode != nullptr) {
    auto* lower_mem =
        dynamic_cast<fs::internal::MemVnode*>(lasagna_vnode->lower().get());
    if (lower_mem != nullptr) {
      descriptor.path = lower_mem->inode()->PathFromRoot();
    }
    FileMeta& meta = MetaOf(lasagna_vnode->ino());
    target_ref = core::ObjectRef{meta.pnode, meta.version};
  }
  std::string frames;
  EncodeLogEntry(&frames,
                 LogEntry{target_ref, core::Record::Of(
                                          core::Attr::kEndTxn,
                                          EncodeTxnDescriptor(descriptor))});
  PASS_RETURN_IF_ERROR(AppendToLog(frames));
  lasagna_stats_.prov_bytes_logged += frames.size();
  ++lasagna_stats_.txns;
  if (lasagna_vnode != nullptr && !data.empty()) {
    env_->ChargeCpu(static_cast<sim::Nanos>(options_.md5_ns_per_byte *
                                            static_cast<double>(data.size())));
    PASS_RETURN_IF_ERROR(FlushLogBuffer());
    PASS_ASSIGN_OR_RETURN(size_t n,
                          lasagna_vnode->lower()->Write(offset, data));
    lasagna_stats_.data_bytes_written += n;
    ++lasagna_stats_.pass_writes;
  }
  return Status::Ok();
}

core::Version LasagnaFs::ApplyFreeze(os::Ino ino) {
  FileMeta& meta = MetaOf(ino);
  ++meta.version;
  ++lasagna_stats_.freezes;
  return meta.version;
}

Status LasagnaFs::AppendTxn(const core::Bundle& bundle,
                            const core::ObjectRef& target,
                            const std::string& data_path, uint64_t offset,
                            std::string_view data) {
  sim::Nanos txn_start = env_->clock().now();
  obs::ScopedSpan txn_span(&env_->obs().trace(), "lasagna.append_txn");
  uint64_t txn_id = next_txn_++;
  std::string frames;

  EncodeLogEntry(&frames,
                 LogEntry{target, core::Record::Of(
                                      core::Attr::kBeginTxn,
                                      static_cast<int64_t>(txn_id))});
  size_t records = 0;
  for (const core::BundleEntry& entry : bundle) {
    core::ObjectRef subject = entry.target.valid() ? entry.target : target;
    for (const core::Record& record : entry.records) {
      EncodeLogEntry(&frames, LogEntry{subject, record});
      ++records;
    }
  }
  TxnDescriptor descriptor;
  descriptor.txn_id = txn_id;
  descriptor.path = data_path;
  descriptor.offset = offset;
  descriptor.length = data.size();
  descriptor.data_md5 = Md5::Hash(data);
  env_->ChargeCpu(static_cast<sim::Nanos>(options_.md5_ns_per_byte *
                                          static_cast<double>(data.size())));
  EncodeLogEntry(&frames,
                 LogEntry{target, core::Record::Of(
                                      core::Attr::kEndTxn,
                                      EncodeTxnDescriptor(descriptor))});

  PASS_RETURN_IF_ERROR(AppendToLog(frames));
  ++lasagna_stats_.txns;
  lasagna_stats_.records_logged += records;
  lasagna_stats_.prov_bytes_logged += frames.size();
  txn_ns_hist_->Record(env_->clock().now() - txn_start);
  return Status::Ok();
}

Status LasagnaFs::AppendToLog(std::string_view frames) {
  log_buffer_.append(frames);
  last_append_ns_ = env_->clock().now();
  if (log_buffer_.size() >= options_.log_buffer_bytes) {
    PASS_RETURN_IF_ERROR(FlushLogBuffer());
  }
  return Status::Ok();
}

Status LasagnaFs::FlushLogBuffer() {
  if (log_buffer_.empty()) {
    return Status::Ok();
  }
  sim::Nanos flush_start = env_->clock().now();
  obs::ScopedSpan flush_span(&env_->obs().trace(), "lasagna.flush_log");
  std::string frames = std::move(log_buffer_);
  log_buffer_.clear();
  std::string path =
      StrFormat("%s/log.%llu", options_.log_dir.c_str(),
                static_cast<unsigned long long>(log_index_));
  if (!lower_->ExistsRaw(path)) {
    PASS_RETURN_IF_ERROR(lower_->WriteFileRaw(path, ""));
    log_size_ = 0;
  }
  PASS_ASSIGN_OR_RETURN(os::VnodeRef vnode, lower_->ResolvePath(path));
  PASS_ASSIGN_OR_RETURN(size_t n, vnode->Write(log_size_, frames));
  log_size_ += n;
  // Fold the flushed frames into this log's hash chain. The buffer always
  // holds whole frames (AppendTxn appends frame-aligned), so the reader
  // consumes it exactly.
  LogChainState& chain = log_chains_[path];
  FrameReader flushed(frames, &chain.head);
  for (;;) {
    auto next = flushed.Next();
    PASS_CHECK(next.ok());
    if (!next->has_value()) {
      break;
    }
    ++chain.frames;
  }
  log_flush_bytes_->Add(n);
  log_flush_ns_hist_->Record(env_->clock().now() - flush_start);
  flush_span.End();
  if (log_size_ >= options_.log_rotate_bytes) {
    PASS_RETURN_IF_ERROR(ForceRotate());
  }
  return Status::Ok();
}

Status LasagnaFs::ForceRotate() {
  PASS_RETURN_IF_ERROR(FlushLogBuffer());
  std::string path =
      StrFormat("%s/log.%llu", options_.log_dir.c_str(),
                static_cast<unsigned long long>(log_index_));
  if (!lower_->ExistsRaw(path) || log_size_ == 0) {
    return Status::Ok();  // nothing to rotate
  }
  ++log_index_;
  log_size_ = 0;
  ++lasagna_stats_.rotations;
  return Status::Ok();
}

void LasagnaFs::MaybeRotateDormant() {
  if (log_size_ > 0 &&
      env_->clock().now() - last_append_ns_ >= options_.log_dormancy_ns) {
    (void)ForceRotate();
  }
}

std::vector<std::string> LasagnaFs::ClosedLogPaths() const {
  std::vector<std::string> out;
  for (uint64_t i = first_closed_log_; i < log_index_; ++i) {
    std::string path =
        StrFormat("%s/log.%llu", options_.log_dir.c_str(),
                  static_cast<unsigned long long>(i));
    if (lower_->ExistsRaw(path)) {
      out.push_back(path);
    }
  }
  return out;
}

Status LasagnaFs::RemoveLog(const std::string& path) {
  PASS_RETURN_IF_ERROR(lower_->UnlinkRaw(path));
  log_chains_.erase(path);
  while (first_closed_log_ < log_index_ &&
         !lower_->ExistsRaw(StrFormat(
             "%s/log.%llu", options_.log_dir.c_str(),
             static_cast<unsigned long long>(first_closed_log_)))) {
    ++first_closed_log_;
  }
  return Status::Ok();
}

}  // namespace pass::lasagna
