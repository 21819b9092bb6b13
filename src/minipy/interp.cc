// MiniPy tree-walking interpreter with provenance-aware wrappers.

#include <algorithm>
#include <cmath>
#include <set>

#include "src/minipy/minipy.h"
#include "src/util/strings.h"

namespace pass::minipy {
namespace {

constexpr uint64_t kMaxDepth = 256;

Result<ValueRef> TypeError(const std::string& what) {
  return InvalidArgument("type error: " + what);
}

bool NumericKind(const ValueRef& v) {
  return v->kind == ValueKind::kInt || v->kind == ValueKind::kFloat;
}

double AsDouble(const ValueRef& v) {
  return v->kind == ValueKind::kInt ? static_cast<double>(v->i) : v->f;
}

bool ValueEquals(const ValueRef& a, const ValueRef& b) {
  if (NumericKind(a) && NumericKind(b)) {
    return AsDouble(a) == AsDouble(b);
  }
  if (a->kind != b->kind) {
    return false;
  }
  switch (a->kind) {
    case ValueKind::kNone:
      return true;
    case ValueKind::kBool:
      return a->b == b->b;
    case ValueKind::kStr:
      return a->s == b->s;
    case ValueKind::kList: {
      if (a->list.size() != b->list.size()) {
        return false;
      }
      for (size_t i = 0; i < a->list.size(); ++i) {
        if (!ValueEquals(a->list[i], b->list[i])) {
          return false;
        }
      }
      return true;
    }
    default:
      return a.get() == b.get();
  }
}

}  // namespace

bool Value::Truthy() const {
  switch (kind) {
    case ValueKind::kNone:
      return false;
    case ValueKind::kBool:
      return b;
    case ValueKind::kInt:
      return i != 0;
    case ValueKind::kFloat:
      return f != 0;
    case ValueKind::kStr:
      return !s.empty();
    case ValueKind::kList:
      return !list.empty();
    case ValueKind::kDict:
      return !dict.empty();
    default:
      return true;
  }
}

std::string Value::Repr() const {
  switch (kind) {
    case ValueKind::kNone:
      return "None";
    case ValueKind::kBool:
      return b ? "True" : "False";
    case ValueKind::kInt:
      return StrFormat("%lld", static_cast<long long>(i));
    case ValueKind::kFloat:
      return StrFormat("%g", f);
    case ValueKind::kStr:
      return s;
    case ValueKind::kList: {
      std::string out = "[";
      for (size_t n = 0; n < list.size(); ++n) {
        if (n > 0) {
          out += ", ";
        }
        out += list[n]->Repr();
      }
      return out + "]";
    }
    case ValueKind::kDict: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, value] : dict) {
        if (!first) {
          out += ", ";
        }
        first = false;
        out += key + ": " + value->Repr();
      }
      return out + "}";
    }
    case ValueKind::kFunc:
      return "<function " + func_name + ">";
    case ValueKind::kBuiltin:
      return "<builtin>";
    case ValueKind::kFile:
      return "<file " + path + ">";
  }
  return "?";
}

ValueRef MakeNone() { return std::make_shared<Value>(); }
ValueRef MakeBool(bool b) {
  auto v = std::make_shared<Value>();
  v->kind = ValueKind::kBool;
  v->b = b;
  return v;
}
ValueRef MakeInt(int64_t i) {
  auto v = std::make_shared<Value>();
  v->kind = ValueKind::kInt;
  v->i = i;
  return v;
}
ValueRef MakeFloat(double f) {
  auto v = std::make_shared<Value>();
  v->kind = ValueKind::kFloat;
  v->f = f;
  return v;
}
ValueRef MakeStr(std::string s) {
  auto v = std::make_shared<Value>();
  v->kind = ValueKind::kStr;
  v->s = std::move(s);
  return v;
}
ValueRef MakeList(std::vector<ValueRef> items) {
  auto v = std::make_shared<Value>();
  v->kind = ValueKind::kList;
  v->list = std::move(items);
  return v;
}

ValueRef* Scope::Find(const std::string& name) {
  for (Scope* scope = this; scope != nullptr; scope = scope->parent.get()) {
    auto it = scope->names.find(name);
    if (it != scope->names.end()) {
      return &it->second;
    }
  }
  return nullptr;
}

Interp::Interp(os::Kernel* kernel, os::Pid pid, core::LibPass* lib)
    : kernel_(kernel), pid_(pid), lib_(lib) {
  globals_ = std::make_shared<Scope>();
  InstallBuiltins();
}

void Interp::Print(const std::string& line) {
  output_ += line;
  output_ += '\n';
}

Result<std::string> Interp::RunSource(std::string_view source) {
  PASS_ASSIGN_OR_RETURN(program_, Parse(source));
  PASS_RETURN_IF_ERROR(RunProgram(*program_));
  return output_;
}

Status Interp::RunProgram(const Program& program) {
  auto flow = ExecBlock(program.body, globals_);
  if (!flow.ok()) {
    return flow.status();
  }
  return Status::Ok();
}

Result<Interp::Flow> Interp::ExecBlock(const std::vector<StmtPtr>& block,
                                       std::shared_ptr<Scope> scope) {
  for (const StmtPtr& stmt : block) {
    PASS_ASSIGN_OR_RETURN(Flow flow, ExecStmt(*stmt, scope));
    if (flow.kind != Flow::Kind::kNormal) {
      return flow;
    }
  }
  return Flow{};
}

Result<Interp::Flow> Interp::ExecStmt(const Stmt& stmt,
                                      std::shared_ptr<Scope> scope) {
  kernel_->env()->ChargeCpu(300);  // interpreter dispatch cost
  switch (stmt.kind) {
    case StmtKind::kExpr: {
      PASS_ASSIGN_OR_RETURN(ValueRef unused, Eval(*stmt.expr, scope));
      (void)unused;
      return Flow{};
    }
    case StmtKind::kAssign: {
      PASS_ASSIGN_OR_RETURN(ValueRef value, Eval(*stmt.expr, scope));
      ValueRef* slot = scope->Find(stmt.name);
      if (slot != nullptr) {
        *slot = std::move(value);
      } else {
        scope->names[stmt.name] = std::move(value);
      }
      return Flow{};
    }
    case StmtKind::kIndexAssign: {
      PASS_ASSIGN_OR_RETURN(ValueRef container,
                            Eval(*stmt.target->lhs, scope));
      PASS_ASSIGN_OR_RETURN(ValueRef key, Eval(*stmt.target->rhs, scope));
      PASS_ASSIGN_OR_RETURN(ValueRef value, Eval(*stmt.expr, scope));
      if (container->kind == ValueKind::kList &&
          key->kind == ValueKind::kInt) {
        if (key->i < 0 ||
            static_cast<size_t>(key->i) >= container->list.size()) {
          return OutOfRange("list index out of range");
        }
        container->list[key->i] = std::move(value);
        return Flow{};
      }
      if (container->kind == ValueKind::kDict &&
          key->kind == ValueKind::kStr) {
        container->dict[key->s] = std::move(value);
        return Flow{};
      }
      return InvalidArgument("bad index assignment");
    }
    case StmtKind::kIf: {
      PASS_ASSIGN_OR_RETURN(ValueRef condition, Eval(*stmt.expr, scope));
      if (condition->Truthy()) {
        return ExecBlock(stmt.body, scope);
      }
      return ExecBlock(stmt.orelse, scope);
    }
    case StmtKind::kWhile: {
      for (;;) {
        PASS_ASSIGN_OR_RETURN(ValueRef condition, Eval(*stmt.expr, scope));
        if (!condition->Truthy()) {
          return Flow{};
        }
        PASS_ASSIGN_OR_RETURN(Flow flow, ExecBlock(stmt.body, scope));
        if (flow.kind == Flow::Kind::kBreak) {
          return Flow{};
        }
        if (flow.kind == Flow::Kind::kReturn) {
          return flow;
        }
      }
    }
    case StmtKind::kFor: {
      PASS_ASSIGN_OR_RETURN(ValueRef iterable, Eval(*stmt.expr, scope));
      std::vector<ValueRef> items;
      if (iterable->kind == ValueKind::kList) {
        items = iterable->list;
      } else if (iterable->kind == ValueKind::kStr) {
        for (char c : iterable->s) {
          items.push_back(MakeStr(std::string(1, c)));
        }
      } else if (iterable->kind == ValueKind::kDict) {
        for (const auto& [key, value] : iterable->dict) {
          items.push_back(MakeStr(key));
        }
      } else {
        return InvalidArgument("for: not iterable");
      }
      for (ValueRef& item : items) {
        scope->names[stmt.name] = item;
        PASS_ASSIGN_OR_RETURN(Flow flow, ExecBlock(stmt.body, scope));
        if (flow.kind == Flow::Kind::kBreak) {
          return Flow{};
        }
        if (flow.kind == Flow::Kind::kReturn) {
          return flow;
        }
      }
      return Flow{};
    }
    case StmtKind::kDef: {
      auto fn = std::make_shared<Value>();
      fn->kind = ValueKind::kFunc;
      fn->func_name = stmt.name;
      fn->params = stmt.params;
      fn->body = &stmt.body;
      fn->closure = scope;
      scope->names[stmt.name] = std::move(fn);
      return Flow{};
    }
    case StmtKind::kReturn: {
      Flow flow;
      flow.kind = Flow::Kind::kReturn;
      if (stmt.expr != nullptr) {
        PASS_ASSIGN_OR_RETURN(flow.value, Eval(*stmt.expr, scope));
      } else {
        flow.value = MakeNone();
      }
      return flow;
    }
    case StmtKind::kPass:
      return Flow{};
    case StmtKind::kBreak: {
      Flow flow;
      flow.kind = Flow::Kind::kBreak;
      return flow;
    }
    case StmtKind::kContinue: {
      Flow flow;
      flow.kind = Flow::Kind::kContinue;
      return flow;
    }
  }
  return Internal("unknown statement kind");
}

Result<ValueRef> Interp::EvalBinary(const ExprNode& expr,
                                    std::shared_ptr<Scope> scope) {
  const std::string& op = expr.text;
  if (op == "and" || op == "or") {
    PASS_ASSIGN_OR_RETURN(ValueRef lhs, Eval(*expr.lhs, scope));
    if (op == "and" && !lhs->Truthy()) {
      return lhs;
    }
    if (op == "or" && lhs->Truthy()) {
      return lhs;
    }
    return Eval(*expr.rhs, scope);
  }
  PASS_ASSIGN_OR_RETURN(ValueRef lhs, Eval(*expr.lhs, scope));
  PASS_ASSIGN_OR_RETURN(ValueRef rhs, Eval(*expr.rhs, scope));
  if (op == "==") {
    return MakeBool(ValueEquals(lhs, rhs));
  }
  if (op == "!=") {
    return MakeBool(!ValueEquals(lhs, rhs));
  }
  if (op == "in") {
    if (rhs->kind == ValueKind::kList) {
      for (const ValueRef& item : rhs->list) {
        if (ValueEquals(lhs, item)) {
          return MakeBool(true);
        }
      }
      return MakeBool(false);
    }
    if (rhs->kind == ValueKind::kStr && lhs->kind == ValueKind::kStr) {
      return MakeBool(rhs->s.find(lhs->s) != std::string::npos);
    }
    if (rhs->kind == ValueKind::kDict && lhs->kind == ValueKind::kStr) {
      return MakeBool(rhs->dict.count(lhs->s) > 0);
    }
    return TypeError("'in' on non-container");
  }
  if (op == "<" || op == "<=" || op == ">" || op == ">=") {
    double cmp;
    if (NumericKind(lhs) && NumericKind(rhs)) {
      cmp = AsDouble(lhs) - AsDouble(rhs);
    } else if (lhs->kind == ValueKind::kStr && rhs->kind == ValueKind::kStr) {
      cmp = static_cast<double>(lhs->s.compare(rhs->s));
    } else {
      return TypeError("comparison of incompatible types");
    }
    bool result = op == "<" ? cmp < 0 : op == "<=" ? cmp <= 0
                              : op == ">"          ? cmp > 0
                                                   : cmp >= 0;
    return MakeBool(result);
  }
  // Arithmetic / concatenation. NOTE: origins are deliberately dropped here
  // — the paper's documented limitation for built-in operators (§6.5).
  if (op == "+") {
    if (lhs->kind == ValueKind::kStr && rhs->kind == ValueKind::kStr) {
      return MakeStr(lhs->s + rhs->s);
    }
    if (lhs->kind == ValueKind::kList && rhs->kind == ValueKind::kList) {
      std::vector<ValueRef> items = lhs->list;
      items.insert(items.end(), rhs->list.begin(), rhs->list.end());
      return MakeList(std::move(items));
    }
  }
  if (NumericKind(lhs) && NumericKind(rhs)) {
    if (lhs->kind == ValueKind::kInt && rhs->kind == ValueKind::kInt &&
        op != "/") {
      int64_t a = lhs->i;
      int64_t b = rhs->i;
      if (op == "+") {
        return MakeInt(a + b);
      }
      if (op == "-") {
        return MakeInt(a - b);
      }
      if (op == "*") {
        return MakeInt(a * b);
      }
      if (op == "//") {
        if (b == 0) {
          return InvalidArgument("integer division by zero");
        }
        return MakeInt(a / b);
      }
      if (op == "%") {
        if (b == 0) {
          return InvalidArgument("modulo by zero");
        }
        return MakeInt(a % b);
      }
    }
    double a = AsDouble(lhs);
    double b = AsDouble(rhs);
    if (op == "+") {
      return MakeFloat(a + b);
    }
    if (op == "-") {
      return MakeFloat(a - b);
    }
    if (op == "*") {
      return MakeFloat(a * b);
    }
    if (op == "/") {
      if (b == 0) {
        return InvalidArgument("division by zero");
      }
      return MakeFloat(a / b);
    }
    if (op == "//") {
      if (b == 0) {
        return InvalidArgument("division by zero");
      }
      return MakeFloat(std::floor(a / b));
    }
  }
  return TypeError("operator '" + op + "' on incompatible types");
}

Result<ValueRef> Interp::CallValue(const ValueRef& callee,
                                   std::vector<ValueRef> args) {
  ++minipy_stats_.calls;
  if (depth_ > kMaxDepth) {
    return Unavailable("recursion limit exceeded");
  }
  if (callee->pa_wrapped) {
    return CallWrapped(callee, args);
  }
  if (callee->kind == ValueKind::kBuiltin) {
    return callee->builtin(*this, args);
  }
  if (callee->kind != ValueKind::kFunc) {
    return TypeError("not callable: " + callee->Repr());
  }
  if (args.size() != callee->params.size()) {
    return InvalidArgument(
        StrFormat("%s() takes %zu arguments, got %zu",
                  callee->func_name.c_str(), callee->params.size(),
                  args.size()));
  }
  auto scope = std::make_shared<Scope>();
  scope->parent = callee->closure;
  for (size_t i = 0; i < args.size(); ++i) {
    scope->names[callee->params[i]] = args[i];
  }
  ++depth_;
  auto flow = ExecBlock(*callee->body, scope);
  --depth_;
  PASS_RETURN_IF_ERROR(flow.status());
  if (flow->kind == Flow::Kind::kReturn) {
    return flow->value;
  }
  return MakeNone();
}

Result<ValueRef> Interp::CallWrapped(const ValueRef& wrapper,
                                     std::vector<ValueRef>& args) {
  ++minipy_stats_.wrapped_calls;
  if (lib_ == nullptr) {
    // No PASS below us: behave like the plain function.
    return CallValue(wrapper->wrapped_target, args);
  }
  // Register the function object once (TYPE/NAME, Table 1).
  if (!wrapper->pa_func_registered) {
    PASS_ASSIGN_OR_RETURN(wrapper->pa_func_object, lib_->Mkobj());
    PASS_RETURN_IF_ERROR(lib_->Write(
        wrapper->pa_func_object,
        {core::Record::Type("FUNCTION"),
         core::Record::Name(wrapper->wrapped_target->func_name)}));
    wrapper->pa_func_registered = true;
  }
  // One invocation object per call: INPUT from the function and from every
  // tagged argument.
  PASS_ASSIGN_OR_RETURN(core::PassObject invocation, lib_->Mkobj());
  ++minipy_stats_.invocations_created;
  std::vector<core::Record> records{
      core::Record::Type("FUNCTION"),
      core::Record::Name(wrapper->wrapped_target->func_name + "()"),
  };
  PASS_ASSIGN_OR_RETURN(core::ObjectRef fn_ref,
                        lib_->Ref(wrapper->pa_func_object));
  records.push_back(core::Record::Input(fn_ref));
  for (const ValueRef& arg : args) {
    if (arg->origin.valid()) {
      records.push_back(core::Record::Input(arg->origin));
    }
  }
  PASS_RETURN_IF_ERROR(lib_->Write(invocation, std::move(records)));

  PASS_ASSIGN_OR_RETURN(ValueRef result,
                        CallValue(wrapper->wrapped_target, args));
  // Tag the output with the invocation: downstream writes disclose it.
  PASS_ASSIGN_OR_RETURN(result->origin, lib_->Ref(invocation));
  return result;
}

Result<ValueRef> Interp::Eval(const ExprNode& expr,
                              std::shared_ptr<Scope> scope) {
  kernel_->env()->ChargeCpu(120);
  switch (expr.kind) {
    case ExprKind::kLiteral: {
      // Copy so mutation of list literals can't corrupt the AST.
      if (expr.literal->kind == ValueKind::kList ||
          expr.literal->kind == ValueKind::kDict) {
        return std::make_shared<Value>(*expr.literal);
      }
      return expr.literal;
    }
    case ExprKind::kName: {
      ValueRef* slot = scope->Find(expr.text);
      if (slot == nullptr) {
        return NotFound("name '" + expr.text + "' is not defined");
      }
      return *slot;
    }
    case ExprKind::kBinary:
      return EvalBinary(expr, scope);
    case ExprKind::kUnary: {
      PASS_ASSIGN_OR_RETURN(ValueRef value, Eval(*expr.rhs, scope));
      if (expr.text == "not") {
        return MakeBool(!value->Truthy());
      }
      if (value->kind == ValueKind::kInt) {
        return MakeInt(-value->i);
      }
      if (value->kind == ValueKind::kFloat) {
        return MakeFloat(-value->f);
      }
      return TypeError("unary '-' on non-number");
    }
    case ExprKind::kCall: {
      // Method call: obj.attr(args)
      if (expr.lhs->kind == ExprKind::kAttr) {
        PASS_ASSIGN_OR_RETURN(ValueRef object, Eval(*expr.lhs->lhs, scope));
        std::vector<ValueRef> args;
        for (const ExprPtr& item : expr.items) {
          PASS_ASSIGN_OR_RETURN(ValueRef arg, Eval(*item, scope));
          args.push_back(std::move(arg));
        }
        return CallMethod(object, expr.lhs->text, args);
      }
      PASS_ASSIGN_OR_RETURN(ValueRef callee, Eval(*expr.lhs, scope));
      std::vector<ValueRef> args;
      for (const ExprPtr& item : expr.items) {
        PASS_ASSIGN_OR_RETURN(ValueRef arg, Eval(*item, scope));
        args.push_back(std::move(arg));
      }
      return CallValue(callee, std::move(args));
    }
    case ExprKind::kAttr:
      return InvalidArgument("attribute '" + expr.text +
                             "' used without a call");
    case ExprKind::kIndex: {
      PASS_ASSIGN_OR_RETURN(ValueRef container, Eval(*expr.lhs, scope));
      PASS_ASSIGN_OR_RETURN(ValueRef key, Eval(*expr.rhs, scope));
      if (container->kind == ValueKind::kList &&
          key->kind == ValueKind::kInt) {
        int64_t index = key->i;
        if (index < 0) {
          index += static_cast<int64_t>(container->list.size());
        }
        if (index < 0 ||
            static_cast<size_t>(index) >= container->list.size()) {
          return OutOfRange("list index out of range");
        }
        return container->list[index];
      }
      if (container->kind == ValueKind::kDict &&
          key->kind == ValueKind::kStr) {
        auto it = container->dict.find(key->s);
        if (it == container->dict.end()) {
          return NotFound("key error: " + key->s);
        }
        return it->second;
      }
      if (container->kind == ValueKind::kStr &&
          key->kind == ValueKind::kInt) {
        int64_t index = key->i;
        if (index < 0) {
          index += static_cast<int64_t>(container->s.size());
        }
        if (index < 0 || static_cast<size_t>(index) >= container->s.size()) {
          return OutOfRange("string index out of range");
        }
        auto ch = MakeStr(std::string(1, container->s[index]));
        ch->origin = container->origin;
        return ch;
      }
      return TypeError("bad index");
    }
    case ExprKind::kListLit: {
      std::vector<ValueRef> items;
      for (const ExprPtr& item : expr.items) {
        PASS_ASSIGN_OR_RETURN(ValueRef value, Eval(*item, scope));
        items.push_back(std::move(value));
      }
      return MakeList(std::move(items));
    }
    case ExprKind::kDictLit: {
      auto dict = std::make_shared<Value>();
      dict->kind = ValueKind::kDict;
      for (size_t i = 0; i + 1 < expr.items.size(); i += 2) {
        PASS_ASSIGN_OR_RETURN(ValueRef key, Eval(*expr.items[i], scope));
        PASS_ASSIGN_OR_RETURN(ValueRef value,
                              Eval(*expr.items[i + 1], scope));
        if (key->kind != ValueKind::kStr) {
          return TypeError("dict keys must be strings");
        }
        dict->dict[key->s] = std::move(value);
      }
      return dict;
    }
  }
  return Internal("unknown expression kind");
}

}  // namespace pass::minipy
