#include "lint/rangelint.hpp"

#include <string>

#include "ir/range.hpp"

namespace sv::lint {

namespace {

using ir::Interval;

/// One report per (check, function, line, symbol): lowered subscript math
/// often touches the same array several times per statement.
std::string keyOf(Check check, const std::string &fn, i32 line,
                  const std::string &symbol) {
  return std::string(name(check)) + "|" + fn + "|" + std::to_string(line) + "|" +
         symbol;
}

class RangeLinter {
public:
  // The lowering keeps source-level subscripts: C-family geps index from 0,
  // Fortran geps from 1 (ir/lower.cpp emits the AST index untouched), so
  // the valid range of a stack array of n elements depends on the module's
  // source language.
  explicit RangeLinter(const ir::Module &module)
      : base_(lang::isFortranFile(module.sourceFile) ? 1 : 0) {}

  std::vector<Diagnostic> run(const ir::ModuleFacts &facts, const ir::ModuleRanges &mr) {
    for (const auto &ff : facts.functions()) {
      if (ff.function().role == ir::FunctionRole::Runtime) continue;
      const ir::FunctionRanges *fr = mr.rangesOf(ff.function().name);
      if (!fr) continue;
      visit(ff, *fr);
    }
    return em_.take();
  }

private:
  i64 base_; ///< first valid subscript: 0 for C-family, 1 for Fortran
  Emitter em_;

  void emit(Check check, Severity sev, const ir::Function &fn, const ir::Instr &in,
            const std::string &symbol, std::string message) {
    em_.emitOnce(keyOf(check, fn.name, in.line, symbol), check, sev,
                 lang::Location{in.file, in.line, 1}, symbol, fn.name,
                 std::move(message));
  }

  /// A loop header: the target of a back edge, by the facts' criterion.
  [[nodiscard]] static bool isLoopHeader(const ir::FunctionFacts &ff, u32 b) {
    for (const u32 p : ff.cfg().preds[b])
      if (ff.isBackEdge(p, b)) return true;
    return false;
  }

  void visit(const ir::FunctionFacts &ff, const ir::FunctionRanges &fr) {
    const ir::Function &fn = ff.function();
    const ir::ValueChaser chase(fn);
    for (usize b = 0; b < fn.blocks.size(); ++b) {
      if (!ff.cfg().reachable[b]) continue;
      const u32 block = static_cast<u32>(b);
      for (const auto &in : fn.blocks[b].instrs) {
        if (in.op == "getelementptr" && in.operands.size() >= 2) {
          checkSubscript(fn, fr, chase, in, block);
        } else if ((in.op == "sdiv" || in.op == "srem") && in.operands.size() >= 2) {
          checkDivisor(fn, fr, in, block);
        } else if (in.op == "condbr" && !in.operands.empty()) {
          checkBranch(ff, fr, in, block);
        }
      }
    }
  }

  void checkSubscript(const ir::Function &fn, const ir::FunctionRanges &fr,
                      const ir::ValueChaser &chase, const ir::Instr &in, u32 block) {
    const std::string root = chase.root(in.operands[0]);
    const auto len = ir::arrayLength(fn, root);
    if (!len || *len <= 0) return; // heap, argument, global, or dynamic size
    const Interval idx = fr.valueAt(in.operands[1], block);
    if (idx.bot) return; // unreachable computation
    const i64 lo = base_;
    const i64 last = base_ + *len - 1;
    const std::string bounds =
        "[" + std::to_string(lo) + ", " + std::to_string(last) + "]";
    if (idx.hi < lo || idx.lo > last) {
      emit(Check::OutOfBounds, Severity::Error, fn, in, root,
           "subscript " + idx.str() + " is provably outside " + bounds);
      return;
    }
    // Only a *bounded* violating side warns: an unbounded bound is the
    // analysis giving up, and warning on ⊤ would flag every opaque index.
    if ((idx.hasLo() && idx.lo < lo) || (idx.hasHi() && idx.hi > last)) {
      emit(Check::OutOfBounds, Severity::Warning, fn, in, root,
           "subscript " + idx.str() + " may fall outside " + bounds);
    }
  }

  void checkDivisor(const ir::Function &fn, const ir::FunctionRanges &fr,
                    const ir::Instr &in, u32 block) {
    const Interval d = fr.valueAt(in.operands[1], block);
    if (d.isConst() && d.lo == 0)
      emit(Check::DivisionByZero, Severity::Error, fn, in, in.operands[1],
           std::string(in.op == "srem" ? "remainder" : "division") +
               " by a divisor proven to be zero");
  }

  void checkBranch(const ir::FunctionFacts &ff, const ir::FunctionRanges &fr,
                   const ir::Instr &in, u32 block) {
    const ir::Function &fn = ff.function();
    const Interval c = fr.valueAt(in.operands[0], block);
    if (!c.isConst() || c.lo != 0) return;
    if (isLoopHeader(ff, block)) {
      emit(Check::ZeroTripLoop, Severity::Note, fn, in, in.operands[0],
           "loop condition is false on entry: the body never runs");
    } else {
      emit(Check::DeadBranch, Severity::Warning, fn, in, in.operands[0],
           "branch condition is provably false: the true arm never runs");
    }
  }
};

} // namespace

std::vector<Diagnostic> runRange(const ir::ModuleFacts &facts,
                                 const ir::ModuleRanges *ranges) {
  RangeLinter linter(facts.module());
  if (ranges) return linter.run(facts, *ranges);
  return linter.run(facts, ir::analyzeModuleRanges(facts));
}

} // namespace sv::lint
