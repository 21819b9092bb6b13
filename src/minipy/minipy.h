#ifndef SRC_MINIPY_MINIPY_H_
#define SRC_MINIPY_MINIPY_H_

// MiniPy: a small Python-like interpreted runtime, standing in for the
// CPython environment of §6.4. Scripts do real I/O through the simulated
// kernel, so PASSv2 observes them like any process; the `pa_wrap` builtin
// reproduces the paper's wrapper package:
//
//   * values read from files carry their (pnode, version) origin,
//   * string/list *methods* propagate origins (the wrappers "wrap objects,
//     modules, basic types"),
//   * built-in *operators* (+, *, ...) drop origins — the exact limitation
//     the paper reports in §6.5,
//   * calling a pa_wrap'ed function creates an invocation object whose
//     INPUT records connect tagged arguments to tagged results,
//   * writing a tagged value to a file discloses the dependency via
//     pass_write.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/libpass.h"
#include "src/os/kernel.h"
#include "src/util/result.h"

namespace pass::minipy {

struct Value;
using ValueRef = std::shared_ptr<Value>;

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
struct ExprNode;
using ExprPtr = std::unique_ptr<ExprNode>;

// ---- AST -----------------------------------------------------------------

enum class ExprKind : uint8_t {
  kLiteral,   // literal
  kName,      // name
  kBinary,    // lhs op rhs
  kUnary,     // op rhs ("-" / "not")
  kCall,      // callee(args...)
  kAttr,      // lhs.attr
  kIndex,     // lhs[rhs]
  kListLit,
  kDictLit,   // {k: v, ...} (string keys)
};

struct ExprNode {
  ExprKind kind;
  std::string text;  // operator / name / attribute
  ValueRef literal;
  ExprPtr lhs;
  ExprPtr rhs;
  std::vector<ExprPtr> items;  // call args / list items / dict k,v pairs
};

enum class StmtKind : uint8_t {
  kExpr,
  kAssign,       // name = expr
  kIndexAssign,  // lhs[i] = expr
  kIf,
  kWhile,
  kFor,          // for name in expr:
  kDef,
  kReturn,
  kPass,
  kBreak,
  kContinue,
};

struct Stmt {
  StmtKind kind;
  std::string name;  // assign target / def name / for variable
  ExprPtr expr;      // value / condition / iterable / return value
  ExprPtr target;    // index-assign target
  std::vector<std::string> params;  // def
  std::vector<StmtPtr> body;
  std::vector<StmtPtr> orelse;  // if/else
};

struct Program {
  std::vector<StmtPtr> body;
};

// Parse MiniPy source (indentation-structured).
Result<std::unique_ptr<Program>> Parse(std::string_view source);

// ---- Values ---------------------------------------------------------------

class Interp;

enum class ValueKind : uint8_t {
  kNone,
  kBool,
  kInt,
  kFloat,
  kStr,
  kList,
  kDict,
  kFunc,
  kBuiltin,
  kFile,
};

struct Value {
  ValueKind kind = ValueKind::kNone;
  bool b = false;
  int64_t i = 0;
  double f = 0;
  std::string s;
  std::vector<ValueRef> list;
  std::map<std::string, ValueRef> dict;
  // Function.
  std::string func_name;
  std::vector<std::string> params;
  const std::vector<StmtPtr>* body = nullptr;
  std::shared_ptr<struct Scope> closure;
  // Builtin.
  std::function<Result<ValueRef>(Interp&, std::vector<ValueRef>&)> builtin;
  // File handle.
  os::Fd fd = -1;
  bool file_open = false;
  std::string path;
  // Provenance tag: where this value came from.
  core::ObjectRef origin;
  // pa_wrap support.
  bool pa_wrapped = false;
  ValueRef wrapped_target;
  core::PassObject pa_func_object;
  bool pa_func_registered = false;

  bool Truthy() const;
  std::string Repr() const;
};

ValueRef MakeNone();
ValueRef MakeBool(bool b);
ValueRef MakeInt(int64_t i);
ValueRef MakeFloat(double f);
ValueRef MakeStr(std::string s);
ValueRef MakeList(std::vector<ValueRef> items = {});

struct Scope {
  std::map<std::string, ValueRef> names;
  std::shared_ptr<Scope> parent;

  ValueRef* Find(const std::string& name);
};

// ---- Interpreter ------------------------------------------------------------

struct MiniPyStats {
  uint64_t calls = 0;
  uint64_t wrapped_calls = 0;
  uint64_t invocations_created = 0;
};

class Interp {
 public:
  // `lib` null => provenance-unaware runtime (plain Python).
  Interp(os::Kernel* kernel, os::Pid pid, core::LibPass* lib);

  // Parse + execute; returns captured print output.
  Result<std::string> RunSource(std::string_view source);
  // Execute a parsed program (kept alive by caller).
  Status RunProgram(const Program& program);

  // Call a MiniPy value (function/builtin) from C++.
  Result<ValueRef> CallValue(const ValueRef& callee,
                             std::vector<ValueRef> args);

  os::Kernel* kernel() { return kernel_; }
  os::Pid pid() const { return pid_; }
  core::LibPass* lib() { return lib_; }
  bool provenance_aware() const { return lib_ != nullptr; }
  const std::string& output() const { return output_; }
  const MiniPyStats& stats() const { return minipy_stats_; }
  std::shared_ptr<Scope> globals() { return globals_; }

  void Print(const std::string& line);

 private:
  friend struct BuiltinInstaller;

  struct Flow {
    enum class Kind : uint8_t { kNormal, kReturn, kBreak, kContinue };
    Kind kind = Kind::kNormal;
    ValueRef value;
  };

  Result<Flow> ExecBlock(const std::vector<StmtPtr>& block,
                         std::shared_ptr<Scope> scope);
  Result<Flow> ExecStmt(const Stmt& stmt, std::shared_ptr<Scope> scope);
  Result<ValueRef> Eval(const ExprNode& expr, std::shared_ptr<Scope> scope);
  Result<ValueRef> EvalBinary(const ExprNode& expr,
                              std::shared_ptr<Scope> scope);
  Result<ValueRef> CallMethod(const ValueRef& object, const std::string& name,
                              std::vector<ValueRef>& args);
  Result<ValueRef> CallWrapped(const ValueRef& wrapper,
                               std::vector<ValueRef>& args);
  void InstallBuiltins();

  os::Kernel* kernel_;
  os::Pid pid_;
  core::LibPass* lib_;
  std::shared_ptr<Scope> globals_;
  std::string output_;
  MiniPyStats minipy_stats_;
  std::unique_ptr<Program> program_;  // owns AST for RunSource
  uint64_t depth_ = 0;
};

}  // namespace pass::minipy

#endif  // SRC_MINIPY_MINIPY_H_
