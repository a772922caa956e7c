// Loading a real on-disk codebase: point SilverVale at a directory
// containing a compile_commands.json (the exact workflow of Fig 2 — CMake,
// Meson and Bear all emit one) and get back a Codebase ready for index().
#pragma once

#include <string>

#include "db/codebase.hpp"

namespace sv::db {

struct DiskLoadOptions {
  /// Name of the compilation database file inside the root directory.
  std::string compileDbName = "compile_commands.json";
  /// Extensions of files registered into the virtual file system.
  std::vector<std::string> extensions = {".h", ".hpp", ".hh", ".cpp", ".cc",
                                         ".cxx", ".f90", ".f95", ".f03", ".f"};
  /// Display metadata for the resulting codebase.
  std::string app = "external";
  std::string model = "unknown";
};

/// Read `root`/compile_commands.json plus every source file under `root`
/// (recursively, filtered by extension; paths are stored relative to
/// `root`, so `include/...` subtrees land under the system prefix exactly
/// like the embedded corpus). Throws ParseError when the compilation DB is
/// missing or malformed.
[[nodiscard]] Codebase loadFromDisk(const std::string &root, const DiskLoadOptions &options = {});

} // namespace sv::db
