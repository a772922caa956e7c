// Command-line flag parsing shared by the svale driver and its tests.
// Flags are declared up front (value-taking vs. bare switches plus short
// aliases), so anything unknown that looks like a flag is rejected instead
// of silently becoming a positional. Supported shapes:
//
//   --flag value     value flags consume the next argument, even one that
//                    starts with '-'
//   --flag=value     inline form; `--flag=` assigns the empty string
//   --switch         bare flags store "1"; `--switch=x` is an error
//   -o value         short aliases expand to their long flag
//   --               terminator: everything after is positional, verbatim
//
// Repeated flags keep the last occurrence (shell-override idiom).
#pragma once

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/common.hpp"

namespace sv::cli {

/// A malformed command line: unknown flag, missing value, and friends.
/// Distinct from ParseError so drivers can show usage text for it.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct FlagSpec {
  std::set<std::string> valueFlags; ///< long names (no dashes) taking a value
  std::set<std::string> bareFlags;  ///< long names that are pure switches
  std::map<std::string, std::string> shortAliases; ///< e.g. "-o" -> "out"
};

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags; ///< bare switches store "1"

  [[nodiscard]] bool has(const std::string &name) const { return flags.count(name) != 0; }
  [[nodiscard]] const std::string &get(const std::string &name,
                                       const std::string &fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
};

/// Parse `argv` against the spec. Throws UsageError on malformed input.
[[nodiscard]] Args parseArgs(const std::vector<std::string> &argv, const FlagSpec &spec);

/// Convenience overload over main()'s argv, starting at index `first`.
[[nodiscard]] Args parseArgs(int argc, char **argv, int first, const FlagSpec &spec);

/// `value` as an unsigned decimal integer. Throws UsageError naming `flag`
/// for anything else: empty text, a sign, trailing characters, or a number
/// above UINT64_MAX.
[[nodiscard]] u64 parseU64(const std::string &value, const std::string &flag);

/// `value` as a finite, non-negative decimal number. Throws UsageError
/// naming `flag` for a sign, trailing characters, nan, inf, or overflow.
[[nodiscard]] double parseDouble(const std::string &value, const std::string &flag);

} // namespace sv::cli
