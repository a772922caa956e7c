// Source management shared by the MiniC and MiniF frontends: an in-memory
// file table (codebases under analysis are virtual file systems, mirroring
// how SilverVale ingests a Compilation DB rather than walking a disk tree)
// and source locations with the file/line back-references that every tree
// node carries (Section III-A).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/common.hpp"

namespace sv::lang {

/// A position in a source file. `file` indexes the owning SourceManager.
struct Location {
  i32 file = -1;
  i32 line = -1; ///< 1-based
  i32 col = -1;  ///< 1-based

  [[nodiscard]] bool valid() const { return file >= 0 && line >= 1; }
  [[nodiscard]] bool operator==(const Location &) const = default;
};

/// One source file: a name (codebase-relative path) and its full text.
struct SourceFile {
  std::string name;
  std::string text;
};

/// Owns the files of one codebase and hands out stable integer ids.
class SourceManager {
public:
  /// Register a file; re-registering the same name replaces its text.
  i32 add(std::string name, std::string text);

  [[nodiscard]] usize fileCount() const { return files_.size(); }
  [[nodiscard]] const SourceFile &file(i32 id) const;
  [[nodiscard]] std::optional<i32> idOf(std::string_view name) const;
  [[nodiscard]] const std::vector<SourceFile> &files() const { return files_; }

  /// Render "name:line:col" for diagnostics.
  [[nodiscard]] std::string describe(const Location &loc) const;

private:
  std::vector<SourceFile> files_;
  std::map<std::string, i32, std::less<>> index_;
};

/// True for Fortran sources, by extension: .f90, .f95, .f03 or .f. The one
/// definition of the rule every frontend, lint tier and fuzz replay uses.
[[nodiscard]] bool isFortranFile(std::string_view file);

/// Error raised by the frontends; carries a rendered location.
class FrontendError : public ParseError {
public:
  FrontendError(const std::string &what, std::string where)
      : ParseError(where + ": " + what), where_(std::move(where)) {}
  [[nodiscard]] const std::string &where() const { return where_; }

private:
  std::string where_;
};

/// Deepest recursive-descent nesting either frontend accepts: open
/// statements, expressions and unary operators, counted together, and, in
/// the preprocessor, open #include files. Deeper input is a FrontendError
/// at the offending token or #include, never a stack overflow.
inline constexpr usize kMaxNesting = 256;

/// One level of parser nesting, held for the duration of a recursive call.
/// The parser checks the depth against kMaxNesting before taking one.
class NestingGuard {
public:
  explicit NestingGuard(usize &depth) : depth_(depth) { ++depth_; }
  ~NestingGuard() { --depth_; }
  NestingGuard(const NestingGuard &) = delete;
  NestingGuard &operator=(const NestingGuard &) = delete;

private:
  usize &depth_;
};

} // namespace sv::lang
