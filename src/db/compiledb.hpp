// Compilation Database ingestion (Section IV): SilverVale's workflow input
// is a compile_commands.json recording how each translation unit of the
// codebase was compiled. The flags determine the programming model (exactly
// as clang's driver does): `-x cuda`, `-x hip`, `-fopenmp`,
// `-fopenmp-targets=...`, `-fsycl`, and -D defines select model and macros.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ir/lower.hpp"
#include "lang/source.hpp"
#include "support/common.hpp"

namespace sv::db {

struct CompileCommand {
  std::string directory;
  std::string file;                 ///< the TU's main source file
  std::vector<std::string> args;    ///< full argv, [0] is the compiler
};

/// Parse a compile_commands.json document. Accepts both the "command"
/// (single string) and "arguments" (array) forms.
[[nodiscard]] std::vector<CompileCommand> parseCompileCommands(const std::string &json);

/// Serialise back to compile_commands.json (used by tests and examples).
[[nodiscard]] std::string writeCompileCommands(const std::vector<CompileCommand> &commands);

/// Infer the programming model from the compile flags.
[[nodiscard]] ir::Model modelFromCommand(const CompileCommand &command);

/// Collect -DNAME[=VALUE] macro definitions.
[[nodiscard]] std::map<std::string, std::string> definesFromCommand(const CompileCommand &command);

using lang::isFortranFile;

} // namespace sv::db
