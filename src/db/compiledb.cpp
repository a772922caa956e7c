#include "db/compiledb.hpp"

#include "support/json.hpp"
#include "support/strings.hpp"

namespace sv::db {

namespace {

/// Split a shell-ish command string into argv (quotes respected, no
/// escapes beyond what compile_commands.json produces in practice).
std::vector<std::string> shellSplit(const std::string &command) {
  std::vector<std::string> out;
  std::string cur;
  bool inQuote = false;
  char quote = '\0';
  for (const char c : command) {
    if (inQuote) {
      if (c == quote) inQuote = false;
      else cur.push_back(c);
      continue;
    }
    if (c == '"' || c == '\'') {
      inQuote = true;
      quote = c;
      continue;
    }
    if (c == ' ' || c == '\t') {
      if (!cur.empty()) {
        out.push_back(std::move(cur));
        cur.clear();
      }
      continue;
    }
    cur.push_back(c);
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

} // namespace

std::vector<CompileCommand> parseCompileCommands(const std::string &jsonText) {
  const auto doc = json::parse(jsonText);
  std::vector<CompileCommand> out;
  for (const auto &entry : doc.asArray()) {
    CompileCommand cmd;
    cmd.directory = entry.at("directory").asString();
    cmd.file = entry.at("file").asString();
    if (const auto *args = entry.find("arguments")) {
      for (const auto &a : args->asArray()) cmd.args.push_back(a.asString());
    } else {
      cmd.args = shellSplit(entry.at("command").asString());
    }
    out.push_back(std::move(cmd));
  }
  return out;
}

std::string writeCompileCommands(const std::vector<CompileCommand> &commands) {
  json::Array arr;
  for (const auto &c : commands) {
    json::Object obj;
    obj.emplace("directory", c.directory);
    obj.emplace("file", c.file);
    json::Array args;
    for (const auto &a : c.args) args.emplace_back(a);
    obj.emplace("arguments", std::move(args));
    arr.emplace_back(std::move(obj));
  }
  return json::write(json::Value(std::move(arr)), 2);
}

ir::Model modelFromCommand(const CompileCommand &command) {
  bool openmp = false;
  bool target = false;
  for (usize i = 0; i < command.args.size(); ++i) {
    const auto &a = command.args[i];
    if (a == "-x" && i + 1 < command.args.size()) {
      if (command.args[i + 1] == "cuda") return ir::Model::Cuda;
      if (command.args[i + 1] == "hip") return ir::Model::Hip;
    }
    if (a == "-fsycl") return ir::Model::Sycl;
    if (a == "-fopenacc") return ir::Model::OpenAcc;
    if (a == "-fopenmp") openmp = true;
    if (str::startsWith(a, "-fopenmp-targets=")) target = true;
    if (a == "-ltbb" || a == "-DUSE_TBB") return ir::Model::Tbb;
    if (a == "-lkokkoscore" || a == "-DUSE_KOKKOS") return ir::Model::Kokkos;
    if (a == "-DUSE_STDPAR" || a == "-stdpar") return ir::Model::StdPar;
  }
  if (openmp && target) return ir::Model::OpenMPTarget;
  if (openmp) return ir::Model::OpenMP;
  return ir::Model::Serial;
}

std::map<std::string, std::string> definesFromCommand(const CompileCommand &command) {
  std::map<std::string, std::string> out;
  for (const auto &a : command.args) {
    if (!str::startsWith(a, "-D")) continue;
    const auto body = a.substr(2);
    const auto eq = body.find('=');
    if (eq == std::string::npos) out[body] = "1";
    else out[body.substr(0, eq)] = body.substr(eq + 1);
  }
  return out;
}

} // namespace sv::db
