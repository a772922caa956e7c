#include "ir/irtree.hpp"

#include <cctype>

#include "support/strings.hpp"

namespace sv::ir {

namespace {

/// Normalise an operand to its kind; names and numbering are discarded.
std::string operandKind(const std::string &op) {
  if (str::startsWith(op, "%")) return "val";
  if (str::startsWith(op, "const:")) return op; // literal values retained
  if (str::startsWith(op, "arg:")) return "arg";
  if (str::startsWith(op, "label:")) return "label";
  if (str::startsWith(op, "field:")) return "field";
  if (str::startsWith(op, "@__") || str::startsWith(op, "@.")) {
    // Runtime/outlined symbols: keep the runtime entry-point name — it is
    // an instruction-level semantic (which runtime is being called), not a
    // programmer symbol.
    return op;
  }
  if (str::startsWith(op, "@")) return "sym";
  return op;
}

/// Normalise a block name to its control-flow kind ("for.cond.3" -> "for.cond").
std::string blockKind(const std::string &name) {
  const auto dot = name.rfind('.');
  if (dot == std::string::npos) return name;
  const auto suffix = name.substr(dot + 1);
  for (const char c : suffix)
    if (!std::isdigit(static_cast<unsigned char>(c))) return name;
  return name.substr(0, dot);
}

} // namespace

tree::Tree buildIrTree(const Module &m) {
  auto t = tree::Tree::leaf("Module");
  for (const auto &g : m.globals) t.addChild(0, "GlobalVariable:" + g.type);
  for (const auto &f : m.functions) {
    std::string label = "Function:" + f.returnType + "/" + std::to_string(f.argCount);
    switch (f.role) {
    case FunctionRole::User: break;
    case FunctionRole::Outlined: label += ":outlined"; break;
    case FunctionRole::DeviceStub: label += ":stub"; break;
    case FunctionRole::Runtime: label += ":runtime"; break;
    }
    const auto fn = t.addChild(0, label, f.file, f.line);
    for (const auto &b : f.blocks) {
      if (b.instrs.empty()) continue; // empty fall-through blocks carry no semantics
      const auto bb = t.addChild(fn, "BasicBlock:" + blockKind(b.name), f.file, f.line);
      for (const auto &in : b.instrs) {
        const auto node = t.addChild(bb, in.op + ":" + in.type, in.file, in.line);
        for (const auto &op : in.operands) t.addChild(node, operandKind(op), in.file, in.line);
      }
    }
  }
  return t;
}

} // namespace sv::ir
