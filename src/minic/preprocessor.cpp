#include "minic/preprocessor.hpp"

#include <cctype>

#include "support/strings.hpp"

namespace sv::minic {

namespace {

using lang::Location;
using lang::SourceManager;

/// Largest text one source line may expand to. Nested object-like macros
/// multiply: ten levels of sixteen-fold bodies would be 16^9 tokens, so the
/// expander stops at this cap instead of exhausting memory.
constexpr usize kMaxLineExpansion = usize{1} << 20;

/// Largest preprocessed text one unit may produce. Each line is capped
/// above, but thousands of sibling includes of an unguarded header still
/// multiply; the corpus's largest unit is under 10 KiB.
constexpr usize kMaxUnitOutput = usize{1} << 24;

struct Macro {
  bool functionLike = false;
  std::vector<std::string> params;
  std::string body;
};

class Preprocessor {
public:
  Preprocessor(const SourceManager &sm, const PreprocessOptions &options)
      : sm_(sm), options_(options) {
    for (const auto &[k, v] : options.defines) macros_[k] = Macro{false, {}, v};
  }

  PreprocessResult run(i32 fileId) {
    processFile(fileId, false);
    return std::move(result_);
  }

private:
  const SourceManager &sm_;
  const PreprocessOptions &options_;
  PreprocessResult result_;
  std::map<std::string, Macro> macros_;
  std::set<i32> pragmaOnce_;
  std::vector<i32> includeStack_;

  [[noreturn]] void fail(i32 fileId, i32 line, const std::string &what) const {
    throw lang::FrontendError(what, sm_.file(fileId).name + ":" + std::to_string(line));
  }

  void emit(std::string line, i32 fileId, i32 lineNo) {
    if (result_.text.size() + line.size() + 1 > kMaxUnitOutput)
      fail(fileId, lineNo,
           "preprocessed output exceeds " + std::to_string(kMaxUnitOutput) + " bytes");
    result_.text += line;
    result_.text += '\n';
    result_.lineOrigins.push_back(Location{fileId, lineNo, 1});
  }

  static std::string stripComments(std::string line, bool &inBlockComment) {
    std::string out;
    bool inString = false;
    for (usize i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (inBlockComment) {
        if (c == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          inBlockComment = false;
          ++i;
        }
        continue;
      }
      if (inString) {
        out.push_back(c);
        if (c == '\\' && i + 1 < line.size()) {
          out.push_back(line[++i]);
        } else if (c == '"') {
          inString = false;
        }
        continue;
      }
      if (c == '"') {
        inString = true;
        out.push_back(c);
        continue;
      }
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        inBlockComment = true;
        ++i;
        continue;
      }
      out.push_back(c);
    }
    return out;
  }

  [[nodiscard]] bool isDefined(const std::string &name) const { return macros_.count(name) != 0; }

  /// Evaluate a #if condition: `0`, `1`, `defined(X)`, `!defined(X)`,
  /// possibly joined by && / ||. Anything richer is out of MiniC scope.
  [[nodiscard]] bool evalCondition(std::string_view cond, i32 fileId, i32 line) const {
    // Recursive descent over || then && then primary.
    struct P {
      std::string_view s;
      usize i = 0;
      const Preprocessor *pp;
      i32 fileId;
      i32 line;

      void ws() {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
      }
      bool primary() {
        ws();
        if (i < s.size() && s[i] == '!') {
          ++i;
          return !primary();
        }
        if (i < s.size() && s[i] == '(') {
          ++i;
          const bool v = orExpr();
          ws();
          if (i < s.size() && s[i] == ')') ++i;
          return v;
        }
        std::string word;
        while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) || s[i] == '_'))
          word.push_back(s[i++]);
        if (word == "defined") {
          ws();
          bool paren = false;
          if (i < s.size() && s[i] == '(') {
            paren = true;
            ++i;
          }
          ws();
          std::string name;
          while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) || s[i] == '_'))
            name.push_back(s[i++]);
          ws();
          if (paren && i < s.size() && s[i] == ')') ++i;
          return pp->isDefined(name);
        }
        if (word == "0") return false;
        if (word == "1") return true;
        if (word.empty()) pp->fail(fileId, line, "malformed #if condition");
        // A bare macro name: true iff defined to a non-zero value.
        const auto it = pp->macros_.find(word);
        if (it == pp->macros_.end()) return false;
        return str::trim(it->second.body) != "0";
      }
      bool andExpr() {
        bool v = primary();
        while (true) {
          ws();
          if (s.substr(i, 2) == "&&") {
            i += 2;
            const bool rhs = primary();
            v = v && rhs;
          } else {
            return v;
          }
        }
      }
      bool orExpr() {
        bool v = andExpr();
        while (true) {
          ws();
          if (s.substr(i, 2) == "||") {
            i += 2;
            const bool rhs = andExpr();
            v = v || rhs;
          } else {
            return v;
          }
        }
      }
    };
    P p{cond, 0, this, fileId, line};
    return p.orExpr();
  }

  /// Expand macros in one line of ordinary source text (line `lineNo` of
  /// `fileId`, where an over-long expansion is reported).
  [[nodiscard]] std::string expandMacros(const std::string &line, i32 fileId, i32 lineNo,
                                         int depth = 0) const {
    if (depth > 8) return line; // cycle guard
    const auto checkSize = [&](const std::string &text) {
      if (text.size() > kMaxLineExpansion)
        fail(fileId, lineNo,
             "macro expansion exceeds " + std::to_string(kMaxLineExpansion) + " bytes");
    };
    std::string out;
    usize i = 0;
    bool changed = false;
    bool inString = false;
    while (i < line.size()) {
      const char c = line[i];
      if (inString) {
        out.push_back(c);
        if (c == '\\' && i + 1 < line.size()) out.push_back(line[++i]);
        else if (c == '"') inString = false;
        ++i;
        continue;
      }
      if (c == '"') {
        inString = true;
        out.push_back(c);
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::string word;
        while (i < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[i])) || line[i] == '_'))
          word.push_back(line[i++]);
        const auto it = macros_.find(word);
        if (it == macros_.end()) {
          out += word;
          continue;
        }
        const Macro &m = it->second;
        if (!m.functionLike) {
          out += m.body;
          checkSize(out);
          changed = true;
          continue;
        }
        // Function-like: require '(' (else leave the name alone).
        usize j = i;
        while (j < line.size() && (line[j] == ' ' || line[j] == '\t')) ++j;
        if (j >= line.size() || line[j] != '(') {
          out += word;
          continue;
        }
        // Collect balanced arguments.
        usize k = j + 1;
        int parens = 1;
        std::vector<std::string> args;
        std::string cur;
        while (k < line.size() && parens > 0) {
          const char a = line[k];
          if (a == '(') ++parens;
          if (a == ')') --parens;
          if (a == ',' && parens == 1) {
            args.push_back(cur);
            cur.clear();
          } else if (parens > 0) {
            cur.push_back(a);
          }
          ++k;
        }
        if (!cur.empty() || !args.empty()) args.push_back(cur);
        // Substitute parameters by whole-word replacement.
        std::string body = m.body;
        for (usize pi = 0; pi < m.params.size() && pi < args.size(); ++pi)
          body = substituteWord(body, m.params[pi], std::string(str::trim(args[pi])));
        out += body;
        checkSize(out);
        i = k;
        changed = true;
        continue;
      }
      out.push_back(c);
      ++i;
    }
    return changed ? expandMacros(out, fileId, lineNo, depth + 1) : out;
  }

  static std::string substituteWord(const std::string &text, const std::string &name,
                                    const std::string &value) {
    std::string out;
    usize i = 0;
    while (i < text.size()) {
      if ((std::isalpha(static_cast<unsigned char>(text[i])) || text[i] == '_')) {
        std::string word;
        while (i < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[i])) || text[i] == '_'))
          word.push_back(text[i++]);
        out += (word == name) ? value : word;
      } else {
        out.push_back(text[i++]);
      }
    }
    return out;
  }

  [[nodiscard]] std::optional<i32> resolveInclude(const std::string &path,
                                                  i32 includerFile) const {
    // Quote-include semantics: relative to the including file's directory
    // first, then the codebase root, then the include/ system prefix.
    const auto &includerName = sm_.file(includerFile).name;
    if (const auto slash = includerName.rfind('/'); slash != std::string::npos) {
      if (const auto id = sm_.idOf(includerName.substr(0, slash + 1) + path)) return id;
    }
    if (const auto id = sm_.idOf(path)) return id;
    if (const auto id = sm_.idOf("include/" + path)) return id;
    return std::nullopt;
  }

  [[nodiscard]] bool isSystemFile(i32 fileId) const {
    const auto &name = sm_.file(fileId).name;
    for (const auto &prefix : options_.systemPrefixes)
      if (str::startsWith(name, prefix)) return true;
    return false;
  }

  void processFile(i32 fileId, bool asSystem) {
    for (const i32 f : includeStack_)
      if (f == fileId) fail(fileId, 1, "include cycle involving " + sm_.file(fileId).name);
    if (pragmaOnce_.count(fileId)) return;
    includeStack_.push_back(fileId);
    if (asSystem || isSystemFile(fileId)) result_.systemFiles.insert(fileId);

    const auto lines = str::splitLines(sm_.file(fileId).text);
    bool inBlockComment = false;
    // Conditional stack: (takenBranchSeen, currentlyActive).
    struct Cond {
      bool taken;
      bool active;
    };
    std::vector<Cond> conds;
    const auto active = [&] {
      for (const auto &c : conds)
        if (!c.active) return false;
      return true;
    };

    for (usize li = 0; li < lines.size(); ++li) {
      const i32 lineNo = static_cast<i32>(li + 1);
      std::string line = stripComments(lines[li], inBlockComment);
      const auto trimmed = str::trim(line);
      if (!trimmed.empty() && trimmed[0] == '#') {
        std::string_view rest = trimmed;
        rest.remove_prefix(1);
        while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t'))
          rest.remove_prefix(1);
        const auto spaceAt = rest.find_first_of(" \t");
        const std::string dir(rest.substr(0, spaceAt));
        const std::string arg(
            spaceAt == std::string_view::npos ? "" : str::trim(rest.substr(spaceAt)));

        if (dir == "ifdef" || dir == "ifndef") {
          const bool defined = isDefined(arg);
          const bool take = active() && (dir == "ifdef" ? defined : !defined);
          conds.push_back(Cond{take, take});
          continue;
        }
        if (dir == "if") {
          const bool take = active() && evalCondition(arg, fileId, lineNo);
          conds.push_back(Cond{take, take});
          continue;
        }
        if (dir == "elif") {
          if (conds.empty()) fail(fileId, lineNo, "#elif without #if");
          auto &c = conds.back();
          if (c.taken) {
            c.active = false;
          } else {
            conds.pop_back();
            const bool take = active() && evalCondition(arg, fileId, lineNo);
            conds.push_back(Cond{take, take});
          }
          continue;
        }
        if (dir == "else") {
          if (conds.empty()) fail(fileId, lineNo, "#else without #if");
          auto &c = conds.back();
          c.active = !c.taken && [&] {
            // active w.r.t. outer conditions only
            for (usize k = 0; k + 1 < conds.size(); ++k)
              if (!conds[k].active) return false;
            return true;
          }();
          if (c.active) c.taken = true;
          continue;
        }
        if (dir == "endif") {
          if (conds.empty()) fail(fileId, lineNo, "#endif without #if");
          conds.pop_back();
          continue;
        }
        if (!active()) continue;

        if (dir == "include") {
          bool system = false;
          std::string path;
          if (!arg.empty() && arg.front() == '"') {
            const auto end = arg.find('"', 1);
            if (end == std::string::npos) fail(fileId, lineNo, "malformed #include");
            path = arg.substr(1, end - 1);
          } else if (!arg.empty() && arg.front() == '<') {
            const auto end = arg.find('>', 1);
            if (end == std::string::npos) fail(fileId, lineNo, "malformed #include");
            path = arg.substr(1, end - 1);
            system = true;
          } else {
            fail(fileId, lineNo, "malformed #include");
          }
          result_.includes.push_back(
              lang::ast::IncludeDecl{path, system, Location{fileId, lineNo, 1}});
          if (const auto inc = resolveInclude(path, fileId)) {
            if (includeStack_.size() >= lang::kMaxNesting)
              fail(fileId, lineNo,
                   "#include nested deeper than " + std::to_string(lang::kMaxNesting) +
                       " levels");
            processFile(*inc, system);
          } else {
            result_.missingIncludes.push_back(path);
          }
          continue;
        }
        if (dir == "define") {
          // NAME, NAME(params), then body.
          usize p = 0;
          std::string name;
          while (p < arg.size() &&
                 (std::isalnum(static_cast<unsigned char>(arg[p])) || arg[p] == '_'))
            name.push_back(arg[p++]);
          if (name.empty()) fail(fileId, lineNo, "malformed #define");
          Macro m;
          if (p < arg.size() && arg[p] == '(') {
            m.functionLike = true;
            ++p;
            std::string param;
            while (p < arg.size() && arg[p] != ')') {
              if (arg[p] == ',') {
                m.params.push_back(std::string(str::trim(param)));
                param.clear();
              } else {
                param.push_back(arg[p]);
              }
              ++p;
            }
            if (!str::trim(param).empty()) m.params.push_back(std::string(str::trim(param)));
            if (p < arg.size()) ++p; // ')'
          }
          m.body = std::string(str::trim(arg.substr(std::min(p, arg.size()))));
          macros_[name] = std::move(m);
          continue;
        }
        if (dir == "undef") {
          macros_.erase(arg);
          continue;
        }
        if (dir == "pragma") {
          if (str::trim(arg) == "once") {
            pragmaOnce_.insert(fileId);
          } else {
            // Pragmas carry semantics (OpenMP!) — pass through verbatim.
            emit("#pragma " + arg, fileId, lineNo);
          }
          continue;
        }
        fail(fileId, lineNo, "unsupported preprocessor directive #" + dir);
      }
      if (!active()) continue;
      emit(expandMacros(line, fileId, lineNo), fileId, lineNo);
    }
    if (!conds.empty()) fail(fileId, static_cast<i32>(lines.size()), "unterminated #if block");
    includeStack_.pop_back();
  }
};

} // namespace

PreprocessResult preprocess(const SourceManager &sm, i32 fileId,
                            const PreprocessOptions &options) {
  Preprocessor pp(sm, options);
  return pp.run(fileId);
}

} // namespace sv::minic
