#include "ir/facts.hpp"

namespace sv::ir {

const Cfg &FunctionFacts::cfg() const {
  if (!cfg_) cfg_ = buildCfg(*fn_);
  return *cfg_;
}

const Dominators &FunctionFacts::dominators() const {
  if (!doms_) doms_ = computeDominators(cfg());
  return *doms_;
}

const SsaFunction &FunctionFacts::ssa() const {
  if (!ssa_) ssa_ = buildSsa(*fn_, cfg(), dominators());
  return *ssa_;
}

ModuleFacts::ModuleFacts(const Module &m) : module_(&m) {
  functions_.reserve(m.functions.size());
  for (const auto &fn : m.functions) functions_.emplace_back(fn);
}

const CallGraph &ModuleFacts::callGraph() const {
  if (!callGraph_) callGraph_ = buildCallGraph(*module_);
  return *callGraph_;
}

} // namespace sv::ir
