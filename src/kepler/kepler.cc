#include "src/kepler/kepler.h"

#include "src/util/strings.h"

namespace pass::kepler {

// ---- Recorder defaults --------------------------------------------------------

Result<Token> Recorder::PerformRead(KeplerEngine& engine, Operator& op,
                                    const std::string& path) {
  PASS_ASSIGN_OR_RETURN(std::string data,
                        engine.kernel()->ReadFile(engine.pid(), path));
  return Token{std::move(data), core::ObjectRef{}};
}

Result<size_t> Recorder::PerformWrite(KeplerEngine& engine, Operator& op,
                                      const std::string& path,
                                      const Token& token) {
  PASS_RETURN_IF_ERROR(
      engine.kernel()->WriteFile(engine.pid(), path, token.data));
  return token.data.size();
}

// ---- Operator base ------------------------------------------------------------

bool Operator::InputsReady(const std::vector<std::string>& ports) const {
  for (const std::string& port : ports) {
    auto it = input_ports_.find(port);
    if (it == input_ports_.end() || it->second.empty()) {
      return false;
    }
  }
  return true;
}

Token Operator::TakeInput(const std::string& port) {
  auto& queue = input_ports_[port];
  Token token = std::move(queue.front());
  queue.pop_front();
  return token;
}

bool Operator::HasInput(const std::string& port) const {
  auto it = input_ports_.find(port);
  return it != input_ports_.end() && !it->second.empty();
}

void Operator::PushInput(const std::string& port, Token token) {
  input_ports_[port].push_back(std::move(token));
}

// ---- Engine -------------------------------------------------------------------

KeplerEngine::KeplerEngine(os::Kernel* kernel, os::Pid pid,
                           std::unique_ptr<Recorder> recorder)
    : kernel_(kernel), pid_(pid), recorder_(std::move(recorder)) {
  if (recorder_ == nullptr) {
    recorder_ = std::make_unique<Recorder>();
  }
}

Operator* KeplerEngine::Add(std::unique_ptr<Operator> op) {
  Operator* raw = op.get();
  operators_.push_back(std::move(op));
  recorder_->OnOperatorRegistered(*raw);
  return raw;
}

void KeplerEngine::Connect(Operator* from, const std::string& out_port,
                           Operator* to, const std::string& in_port) {
  wires_[{from, out_port}].push_back(Connection{to, in_port});
}

void KeplerEngine::Emit(Operator& from, const std::string& out_port,
                        Token token) {
  auto it = wires_.find({&from, out_port});
  if (it == wires_.end()) {
    return;  // dangling output
  }
  for (const Connection& wire : it->second) {
    recorder_->OnTokenTransfer(from, *wire.to, token);
    ++kepler_stats_.token_transfers;
    wire.to->PushInput(wire.in_port, token);
  }
}

Status KeplerEngine::Run() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& op : operators_) {
      PASS_ASSIGN_OR_RETURN(bool fired, op->Fire(*this));
      if (fired) {
        ++kepler_stats_.firings;
        kernel_->env()->ChargeCpu(kFiringCpuNs);
        progress = true;
      }
    }
  }
  return recorder_->Finish(*this);
}

// ---- Generic operators --------------------------------------------------------

FileSourceOp::FileSourceOp(std::string name, std::string path)
    : Operator(std::move(name), "SOURCE"), path_(std::move(path)) {
  SetParam("fileName", path_);
}

Result<bool> FileSourceOp::Fire(KeplerEngine& engine) {
  if (fired_) {
    return false;
  }
  fired_ = true;
  PASS_ASSIGN_OR_RETURN(Token token,
                        engine.recorder()->PerformRead(engine, *this, path_));
  engine.Emit(*this, "out", std::move(token));
  return true;
}

FileSinkOp::FileSinkOp(std::string name, std::string path)
    : Operator(std::move(name), "SINK"), path_(std::move(path)) {
  SetParam("fileName", path_);
  SetParam("confirmOverwrite", "false");
}

Result<bool> FileSinkOp::Fire(KeplerEngine& engine) {
  if (!HasInput("in")) {
    return false;
  }
  Token token = TakeInput("in");
  PASS_ASSIGN_OR_RETURN(
      size_t n, engine.recorder()->PerformWrite(engine, *this, path_, token));
  (void)n;
  return true;
}

TransformOp::TransformOp(std::string name, std::string type, Fn fn,
                         double cpu_ns_per_byte)
    : Operator(std::move(name), std::move(type)),
      fn_(std::move(fn)),
      cpu_ns_per_byte_(cpu_ns_per_byte) {}

Result<bool> TransformOp::Fire(KeplerEngine& engine) {
  if (!HasInput("in")) {
    return false;
  }
  Token token = TakeInput("in");
  engine.kernel()->env()->ChargeCpu(static_cast<sim::Nanos>(
      cpu_ns_per_byte_ * static_cast<double>(token.data.size())));
  Token out{fn_(token.data), token.origin};
  engine.Emit(*this, "out", std::move(out));
  return true;
}

CombineOp::CombineOp(std::string name, std::string type, size_t arity, Fn fn,
                     double cpu_ns_per_byte)
    : Operator(std::move(name), std::move(type)),
      arity_(arity),
      fn_(std::move(fn)),
      cpu_ns_per_byte_(cpu_ns_per_byte) {}

Result<bool> CombineOp::Fire(KeplerEngine& engine) {
  std::vector<std::string> ports;
  ports.reserve(arity_);
  for (size_t i = 0; i < arity_; ++i) {
    ports.push_back(StrFormat("in%zu", i));
  }
  if (!InputsReady(ports)) {
    return false;
  }
  std::vector<std::string> inputs;
  size_t total = 0;
  for (const std::string& port : ports) {
    Token token = TakeInput(port);
    total += token.data.size();
    inputs.push_back(std::move(token.data));
  }
  engine.kernel()->env()->ChargeCpu(static_cast<sim::Nanos>(
      cpu_ns_per_byte_ * static_cast<double>(total)));
  engine.Emit(*this, "out", Token{fn_(inputs), core::ObjectRef{}});
  return true;
}

// ---- TextRecorder -------------------------------------------------------------

void TextRecorder::OnOperatorRegistered(Operator& op) {
  buffer_ += StrFormat("OPERATOR name=%s type=%s\n", op.name().c_str(),
                       op.type().c_str());
}

void TextRecorder::OnTokenTransfer(Operator& from, Operator& to,
                                   const Token& token) {
  buffer_ += StrFormat("TRANSFER from=%s to=%s bytes=%zu\n",
                       from.name().c_str(), to.name().c_str(),
                       token.data.size());
}

Status TextRecorder::Finish(KeplerEngine& engine) {
  return engine.kernel()->WriteFile(engine.pid(), path_, buffer_);
}

// ---- PassRecorder -------------------------------------------------------------

void PassRecorder::OnOperatorRegistered(Operator& op) {
  auto object = lib_.Mkobj();
  if (!object.ok()) {
    return;
  }
  std::vector<core::Record> records{
      core::Record::Type("OPERATOR"),
      core::Record::Name(op.name()),
  };
  for (const auto& [key, value] : op.params()) {
    records.push_back(
        core::Record::Of(core::Attr::kParams, key + "=" + value));
  }
  (void)lib_.Write(*object, std::move(records));
  objects_[&op] = *object;
}

void PassRecorder::OnTokenTransfer(Operator& from, Operator& to,
                                   const Token& token) {
  auto from_it = objects_.find(&from);
  auto to_it = objects_.find(&to);
  if (from_it == objects_.end() || to_it == objects_.end()) {
    return;
  }
  auto from_ref = lib_.Ref(from_it->second);
  if (!from_ref.ok()) {
    return;
  }
  // Recipient depends on sender — the only Kepler recording operation that
  // must reach PASSv2 (§6.2).
  (void)lib_.Write(to_it->second, {core::Record::Input(*from_ref)});
}

Result<Token> PassRecorder::PerformRead(KeplerEngine& engine, Operator& op,
                                        const std::string& path) {
  // pass_read: capture the exact identity of the input file and link the
  // operator to it.
  PASS_ASSIGN_OR_RETURN(
      os::Fd fd, engine.kernel()->Open(engine.pid(), path, os::kOpenRead));
  std::string data;
  core::ObjectRef source;
  for (;;) {
    auto piece = lib_.Read(fd, 64 * 1024);
    if (!piece.ok()) {
      (void)engine.kernel()->Close(engine.pid(), fd);
      return piece.status();
    }
    source = piece->source;
    data += piece->data;
    if (piece->data.size() < 64 * 1024) {
      break;
    }
  }
  PASS_RETURN_IF_ERROR(engine.kernel()->Close(engine.pid(), fd));
  auto it = objects_.find(&op);
  if (it != objects_.end() && source.valid()) {
    (void)lib_.Write(it->second, {core::Record::Input(source)});
  }
  return Token{std::move(data), source};
}

Result<size_t> PassRecorder::PerformWrite(KeplerEngine& engine, Operator& op,
                                          const std::string& path,
                                          const Token& token) {
  PASS_ASSIGN_OR_RETURN(
      os::Fd fd,
      engine.kernel()->Open(engine.pid(), path,
                            os::kOpenWrite | os::kOpenCreate | os::kOpenTrunc));
  std::vector<core::Record> records;
  auto it = objects_.find(&op);
  if (it != objects_.end()) {
    auto op_ref = lib_.Ref(it->second);
    if (op_ref.ok()) {
      records.push_back(core::Record::Input(*op_ref));
    }
  }
  auto n = lib_.WriteFile(fd, token.data, std::move(records));
  if (!n.ok()) {
    (void)engine.kernel()->Close(engine.pid(), fd);
    return n.status();
  }
  PASS_RETURN_IF_ERROR(engine.kernel()->Close(engine.pid(), fd));
  return *n;
}

Result<core::ObjectRef> PassRecorder::OperatorRef(const Operator& op) const {
  auto it = objects_.find(&op);
  if (it == objects_.end()) {
    return NotFound("operator has no PASS object: " + op.name());
  }
  return core::ObjectRef{it->second.pnode, 0};
}

}  // namespace pass::kepler
