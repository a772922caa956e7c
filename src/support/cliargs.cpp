#include "support/cliargs.hpp"

#include <charconv>
#include <cmath>

namespace sv::cli {

Args parseArgs(const std::vector<std::string> &argv, const FlagSpec &spec) {
  Args out;
  bool terminated = false; // saw "--": the rest is positional
  for (usize i = 0; i < argv.size(); ++i) {
    std::string a = argv[i];
    if (terminated) {
      out.positional.push_back(std::move(a));
      continue;
    }
    if (a == "--") {
      terminated = true;
      continue;
    }
    if (const auto alias = spec.shortAliases.find(a); alias != spec.shortAliases.end()) {
      if (i + 1 >= argv.size()) throw UsageError(a + " requires a value");
      out.flags[alias->second] = argv[++i];
      continue;
    }
    if (a.rfind("--", 0) == 0) {
      std::string name = a.substr(2);
      std::string value;
      bool hasValue = false;
      if (const auto eq = name.find('='); eq != std::string::npos) {
        value = name.substr(eq + 1); // "--flag=" keeps the empty string
        name.resize(eq);
        hasValue = true;
      }
      if (spec.valueFlags.count(name)) {
        if (!hasValue) {
          if (i + 1 >= argv.size()) throw UsageError("--" + name + " requires a value");
          value = argv[++i];
        }
        out.flags[name] = std::move(value); // repeated flag: last wins
      } else if (spec.bareFlags.count(name)) {
        if (hasValue) throw UsageError("--" + name + " does not take a value");
        out.flags[name] = "1";
      } else {
        throw UsageError("unknown flag: " + a);
      }
      continue;
    }
    out.positional.push_back(std::move(a));
  }
  return out;
}

Args parseArgs(int argc, char **argv, int first, const FlagSpec &spec) {
  std::vector<std::string> args;
  args.reserve(static_cast<usize>(argc > first ? argc - first : 0));
  for (int i = first; i < argc; ++i) args.emplace_back(argv[i]);
  return parseArgs(args, spec);
}

u64 parseU64(const std::string &value, const std::string &flag) {
  // from_chars takes no sign and no whitespace for an unsigned type.
  u64 v = 0;
  const char *end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (value.empty() || ec != std::errc{} || ptr != end)
    throw UsageError("--" + flag + " expects an unsigned integer, got '" + value + "'");
  return v;
}

double parseDouble(const std::string &value, const std::string &flag) {
  double v = 0;
  const char *end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (value.empty() || value[0] == '-' || ec != std::errc{} || ptr != end || !std::isfinite(v))
    throw UsageError("--" + flag + " expects a non-negative number, got '" + value + "'");
  return v;
}

} // namespace sv::cli
