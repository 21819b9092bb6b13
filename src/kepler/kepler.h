#ifndef SRC_KEPLER_KEPLER_H_
#define SRC_KEPLER_KEPLER_H_

// PA-Kepler: a dataflow workflow engine in the style of Kepler (§6.2).
//
// Operators exchange tokens over connected ports; a director fires ready
// operators in rounds until quiescence. The engine records provenance for
// all communication between workflow operators through a pluggable
// recording interface with three options, mirroring the paper: a text file,
// a relational table, or PASSv2 via the DPAPI.
//
// The PASS recorder creates a PASS object for every operator
// (pass_mkobj + NAME/TYPE/PARAMS), adds an ancestry record per token
// transfer, and — because Kepler's recording interface knows nothing about
// file I/O — the engine's source and sink operators route reads and writes
// through the recorder so the PASS recorder can link workflow provenance to
// file provenance (pass_read identity in, pass_write bundle out).

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/libpass.h"
#include "src/os/kernel.h"

namespace pass::kepler {

struct Token {
  std::string data;
  // Origin of the token in PASS terms (set by the PASS recorder as tokens
  // enter the workflow from files).
  core::ObjectRef origin;
};

class Operator;
class KeplerEngine;

// The provenance recording interface (Kepler's `ProvenanceListener`).
class Recorder {
 public:
  virtual ~Recorder() = default;

  virtual void OnOperatorRegistered(Operator& op) {}
  virtual void OnTokenTransfer(Operator& from, Operator& to,
                               const Token& token) {}
  // Source/sink hooks: perform the actual I/O so the PASS recorder can
  // substitute pass_read / pass_write (§6.2's modified data sink/source
  // routines). Defaults perform plain kernel I/O.
  virtual Result<Token> PerformRead(KeplerEngine& engine, Operator& op,
                                    const std::string& path);
  virtual Result<size_t> PerformWrite(KeplerEngine& engine, Operator& op,
                                      const std::string& path,
                                      const Token& token);
  // Flush any buffered recording (end of workflow run).
  virtual Status Finish(KeplerEngine& engine) { return Status::Ok(); }
};

class Operator {
 public:
  Operator(std::string name, std::string type)
      : name_(std::move(name)), type_(std::move(type)) {}
  virtual ~Operator() = default;

  const std::string& name() const { return name_; }
  const std::string& type() const { return type_; }
  const std::map<std::string, std::string>& params() const { return params_; }
  void SetParam(const std::string& key, std::string value) {
    params_[key] = std::move(value);
  }

  // True when every named input port has a token waiting.
  bool InputsReady(const std::vector<std::string>& ports) const;
  Token TakeInput(const std::string& port);
  bool HasInput(const std::string& port) const;
  void PushInput(const std::string& port, Token token);

  // Fire once if ready; return true if the operator did work.
  virtual Result<bool> Fire(KeplerEngine& engine) = 0;

 protected:
  std::map<std::string, std::deque<Token>> input_ports_;

 private:
  std::string name_;
  std::string type_;
  std::map<std::string, std::string> params_;
};

struct KeplerStats {
  uint64_t firings = 0;
  uint64_t token_transfers = 0;
};

class KeplerEngine {
 public:
  // `lib` may be null when the PASS recorder is not used.
  KeplerEngine(os::Kernel* kernel, os::Pid pid,
               std::unique_ptr<Recorder> recorder);

  // Register an operator (engine owns it).
  Operator* Add(std::unique_ptr<Operator> op);
  // Connect producer's output port to consumer's input port. A producer
  // port may feed any number of consumers.
  void Connect(Operator* from, const std::string& out_port, Operator* to,
               const std::string& in_port);

  // Emit a token from an operator's output port to all connected inputs.
  void Emit(Operator& from, const std::string& out_port, Token token);

  // Run the director until no operator can fire.
  Status Run();

  os::Kernel* kernel() { return kernel_; }
  os::Pid pid() const { return pid_; }
  Recorder* recorder() { return recorder_.get(); }
  const KeplerStats& stats() const { return kepler_stats_; }

  // CPU cost of one operator firing (actor scheduling overhead).
  static constexpr sim::Nanos kFiringCpuNs = 20000;

 private:
  struct Connection {
    Operator* to;
    std::string in_port;
  };

  os::Kernel* kernel_;
  os::Pid pid_;
  std::unique_ptr<Recorder> recorder_;
  std::vector<std::unique_ptr<Operator>> operators_;
  std::map<std::pair<Operator*, std::string>, std::vector<Connection>> wires_;
  KeplerStats kepler_stats_;
};

// ---- Generic operators --------------------------------------------------------

// Reads one file and emits its contents once.
class FileSourceOp : public Operator {
 public:
  FileSourceOp(std::string name, std::string path);
  Result<bool> Fire(KeplerEngine& engine) override;

 private:
  std::string path_;
  bool fired_ = false;
};

// Writes every incoming token to a file (truncating first, appending after).
class FileSinkOp : public Operator {
 public:
  FileSinkOp(std::string name, std::string path);
  Result<bool> Fire(KeplerEngine& engine) override;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// One input -> transformed output. `cpu_ns_per_byte` models the stage cost.
class TransformOp : public Operator {
 public:
  using Fn = std::function<std::string(const std::string&)>;
  TransformOp(std::string name, std::string type, Fn fn,
              double cpu_ns_per_byte = 5.0);
  Result<bool> Fire(KeplerEngine& engine) override;

 private:
  Fn fn_;
  double cpu_ns_per_byte_;
};

// N inputs ("in0".."inN-1") -> one output.
class CombineOp : public Operator {
 public:
  using Fn = std::function<std::string(const std::vector<std::string>&)>;
  CombineOp(std::string name, std::string type, size_t arity, Fn fn,
            double cpu_ns_per_byte = 5.0);
  Result<bool> Fire(KeplerEngine& engine) override;

 private:
  size_t arity_;
  Fn fn_;
  double cpu_ns_per_byte_;
};

// ---- Recorders ----------------------------------------------------------------

// Option 1: plain text file of provenance events (Kepler's default).
class TextRecorder : public Recorder {
 public:
  explicit TextRecorder(std::string path) : path_(std::move(path)) {}
  void OnOperatorRegistered(Operator& op) override;
  void OnTokenTransfer(Operator& from, Operator& to,
                       const Token& token) override;
  Status Finish(KeplerEngine& engine) override;

 private:
  std::string path_;
  std::string buffer_;
};

// Option 2: relational rows (the paper's database option).
class RelationalRecorder : public Recorder {
 public:
  struct EventRow {
    std::string from;
    std::string to;
    uint64_t bytes;
  };
  void OnOperatorRegistered(Operator& op) override {
    operators_.push_back(op.name());
  }
  void OnTokenTransfer(Operator& from, Operator& to,
                       const Token& token) override {
    rows_.push_back(EventRow{from.name(), to.name(), token.data.size()});
  }
  const std::vector<EventRow>& rows() const { return rows_; }
  const std::vector<std::string>& operators() const { return operators_; }

 private:
  std::vector<std::string> operators_;
  std::vector<EventRow> rows_;
};

// Option 3: PASSv2 via the DPAPI (the contribution of §6.2).
class PassRecorder : public Recorder {
 public:
  explicit PassRecorder(core::LibPass lib) : lib_(lib) {}

  void OnOperatorRegistered(Operator& op) override;
  void OnTokenTransfer(Operator& from, Operator& to,
                       const Token& token) override;
  Result<Token> PerformRead(KeplerEngine& engine, Operator& op,
                            const std::string& path) override;
  Result<size_t> PerformWrite(KeplerEngine& engine, Operator& op,
                              const std::string& path,
                              const Token& token) override;

  // PASS object backing an operator (tests / queries).
  Result<core::ObjectRef> OperatorRef(const Operator& op) const;

 private:
  core::LibPass lib_;
  std::map<const Operator*, core::PassObject> objects_;
};

}  // namespace pass::kepler

#endif  // SRC_KEPLER_KEPLER_H_
