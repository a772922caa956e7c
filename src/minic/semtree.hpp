// T_sem generator (Section III-A / IV-A): converts the analysed AST into a
// ClangAST-flavoured semantic tree. Per the paper: programmer-introduced
// names are dropped (only node kinds survive), literals and operator
// spellings are retained, non-semantic nodes (implicit casts) are filtered
// out, OpenMP/OpenACC directives become first-class directive nodes
// with clause children, and model-API calls grow the hidden
// TemplateArgument / CXXConstructExpr children sema annotated.
#pragma once

#include <set>

#include "lang/ast.hpp"
#include "tree/tree.hpp"

namespace sv::minic {

struct SemTreeOptions {
  /// Skip declarations whose location lies in one of these files (system
  /// headers are masked out of the metric, Section III-C).
  std::set<i32> maskedFiles;
};

/// Build T_sem for a translation unit.
[[nodiscard]] tree::Tree buildSemTree(const lang::ast::TranslationUnit &unit,
                                      const SemTreeOptions &options = {});

} // namespace sv::minic
