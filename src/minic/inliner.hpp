// T_sem+i inliner (Section IV-A): "inlines all function invocations that
// originated from the same source at the tree level (i.e., system headers
// or libraries are excluded)". T_sem+i captures the case where the codebase
// itself abstracts over a parallel programming model — the abstraction
// function's body (which contains the model-specific code) is pulled into
// the call site's subtree, so the divergence the abstraction was hiding
// becomes visible.
#pragma once

#include <set>

#include "lang/ast.hpp"

namespace sv::minic {

struct InlineOptions {
  /// Files whose definitions must NOT be inlined (system/model headers).
  std::set<i32> systemFiles;
};

/// Maximum nesting of inlined bodies; bounds recursion.
inline constexpr usize kMaxInlineDepth = 3;

struct InlineStats {
  usize inlinedCalls = 0;
};

/// Graft, onto every call whose callee is a function defined in `unit`
/// outside the system files, a clone of the callee's body (stored in the
/// call Expr's `body`; the T_sem generator renders it as part of the call's
/// subtree). Runs `kMaxInlineDepth` passes so calls inside inlined bodies are
/// themselves inlined. Direct recursion is never inlined.
InlineStats inlineUnit(lang::ast::TranslationUnit &unit, const InlineOptions &options = {});

} // namespace sv::minic
