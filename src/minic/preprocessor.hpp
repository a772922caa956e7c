// MiniC preprocessor: resolves #include against the codebase's in-memory
// file set, expands object- and function-like macros, evaluates
// #ifdef/#ifndef/#if conditionals, honours #pragma once, and — crucially
// for the metrics — passes `#pragma omp ...` lines through untouched so the
// directive tokens survive preprocessing (Section III-C's "special
// provisions"). The output records, per physical line, which original
// {file, line} it came from, so every downstream tree node keeps its source
// back-reference.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "lang/source.hpp"

namespace sv::minic {

struct PreprocessOptions {
  /// Predefined macros (e.g. from the compile command's -D flags).
  std::map<std::string, std::string> defines;
  /// File-name prefixes treated as system headers: they are spliced (their
  /// symbols are visible) but flagged so analyses can mask them out, as the
  /// paper does for system headers.
  std::vector<std::string> systemPrefixes = {"include/"};
};

struct PreprocessResult {
  std::string text;                        ///< preprocessed source, pragmas preserved
  std::vector<lang::Location> lineOrigins; ///< per output line: original file + line
  std::vector<lang::ast::IncludeDecl> includes; ///< all includes, in splice order
  std::set<i32> systemFiles;               ///< file ids classified as system headers
  std::vector<std::string> missingIncludes;///< names that resolved nowhere (recorded, skipped)
};

/// Preprocess `fileId` (must exist in `sm`). Includes resolve within `sm`
/// by exact name, then by `include/<name>`. Unresolvable includes are
/// recorded in `missingIncludes` and skipped — mirroring how SilverVale
/// masks system headers it does not index. Throws FrontendError on
/// malformed directives, include cycles, includes nested deeper than
/// lang::kMaxNesting, a line whose macro expansion passes a fixed byte
/// cap, and a unit whose total output passes a second, larger one.
[[nodiscard]] PreprocessResult preprocess(const lang::SourceManager &sm, i32 fileId,
                                          const PreprocessOptions &options = {});

} // namespace sv::minic
