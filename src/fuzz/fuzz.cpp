#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "corpus/corpus.hpp"
#include "fuzz/reduce.hpp"
#include "fuzz/rng.hpp"
#include "support/strings.hpp"

namespace sv::fuzz {

namespace {

[[nodiscard]] std::string hex16(u64 v) {
  static const char *digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[static_cast<usize>(i)] = digits[v & 0xf];
  return out;
}

[[nodiscard]] std::string crashHeader(const GeneratedProgram &p, Oracle oracle) {
  const char *lead = p.lang == Lang::MiniC ? "//" : "!";
  std::ostringstream os;
  os << lead << " svale-fuzz lang=" << langName(p.lang) << " model=" << p.model
     << " oracle=" << oracleName(oracle) << " seed=" << p.seed;
  return os.str();
}

[[nodiscard]] std::string crashFileName(const GeneratedProgram &p, Oracle oracle) {
  std::ostringstream os;
  os << "crash-" << langName(p.lang) << "-seed" << p.seed << "-" << oracleName(oracle)
     << (p.lang == Lang::MiniC ? ".cpp" : ".f90");
  return os.str();
}

[[nodiscard]] std::string firstLine(const std::string &s) {
  const auto nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

/// Shrink a failing program. A candidate keeps a removal only when it
/// still parses without introducing *new* unresolved names (deleting a
/// declaration would manufacture a fresh undeclared-variable failure) and
/// still fails the same oracle with the same message category (first line
/// — detail lines carry diffs that legitimately change as lines vanish).
[[nodiscard]] std::string shrink(const GeneratedProgram &program, const OracleFailure &failure) {
  const u32 bit = oracleBit(failure.oracle);
  const std::string wanted = firstLine(failure.message);
  const auto baseline = reductionGate(program.source, program.lang)
                            .value_or(std::vector<std::string>{});
  const auto stillFails = [&](const std::string &candidate) {
    const auto gate = reductionGate(candidate, program.lang);
    if (!gate ||
        !std::includes(baseline.begin(), baseline.end(), gate->begin(), gate->end()))
      return false;
    GeneratedProgram variant = program;
    variant.source = candidate;
    for (const auto &f : runOracles(variant, bit))
      if (firstLine(f.message) == wanted) return true;
    return false;
  };
  return reduceLines(program.source, stillFails);
}

[[nodiscard]] std::string writeCrash(const std::string &outDir, const std::string &name,
                                     const std::string &header, const std::string &body) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(outDir, ec);
  const fs::path path = fs::path(outDir) / name;
  std::ofstream out(path);
  if (!out) return {};
  out << header << "\n" << body;
  return path.string();
}

struct CorpusPick {
  Lang lang;
  std::string app;
  std::string model;
};

[[nodiscard]] CorpusPick pickCorpusRound(const FuzzOptions &o, Rng &rng) {
  const bool useF = o.genF && (!o.genC || rng.chance(50));
  CorpusPick pick;
  pick.lang = useF ? Lang::MiniF : Lang::MiniC;
  pick.app = useF ? "babelstream-fortran" : "babelstream";
  const auto models = useF ? corpus::babelstreamFortranModels() : corpus::babelstreamModels();
  pick.model = rng.pick(models);
  return pick;
}

} // namespace

FuzzReport runFuzz(const FuzzOptions &options) {
  FuzzReport report;
  std::ostringstream transcript;
  OracleContext context;

  const auto runProgram = [&](usize index, const GeneratedProgram &program) {
    ++report.programs;
    const auto failures = runOracles(program, options.oracleMask, &context);
    transcript << "gen i=" << index << " lang=" << langName(program.lang)
               << " seed=" << program.seed << " src=" << hex16(fnv1a64(program.source))
               << " verdict=" << (failures.empty() ? "ok" : "fail") << "\n";
    bool first = true;
    for (const auto &f : failures) {
      FuzzFailure rec;
      rec.lang = program.lang;
      rec.seed = program.seed;
      rec.oracle = f.oracle;
      rec.message = f.message;
      if (first) {
        // Reduce and persist only the first failure per program; later
        // oracles usually trip over the same root cause.
        if (options.reduce) rec.reduced = shrink(program, f);
        const std::string &body = rec.reduced.empty() ? program.source : rec.reduced;
        if (!options.outDir.empty())
          rec.file = writeCrash(options.outDir, crashFileName(program, f.oracle),
                                crashHeader(program, f.oracle), body);
        first = false;
      }
      report.failures.push_back(std::move(rec));
    }
  };

  for (usize i = 0; i < options.count; ++i) {
    const u64 iterSeed = mixSeed(options.seed, i);
    if (options.corpusMutants && i % 5 == 4 && (options.oracleMask & oracleBit(Oracle::Lint))) {
      Rng rng(iterSeed ^ 0x436f72707573ULL); // "Corpus"
      const CorpusPick pick = pickCorpusRound(options, rng);
      ++report.corpusRounds;
      const auto failures = runCorpusMutationOracle(pick.app, pick.model, iterSeed);
      transcript << "corpus i=" << i << " app=" << pick.app << " model=" << pick.model
                 << " seed=" << iterSeed << " verdict=" << (failures.empty() ? "ok" : "fail")
                 << "\n";
      for (const auto &f : failures) {
        FuzzFailure rec;
        rec.lang = pick.lang;
        rec.seed = iterSeed;
        rec.oracle = f.oracle;
        rec.message = "[" + pick.app + "/" + pick.model + "] " + f.message;
        report.failures.push_back(std::move(rec));
      }
      continue;
    }
    for (const Lang lang : {Lang::MiniC, Lang::MiniF}) {
      if (lang == Lang::MiniC && !options.genC) continue;
      if (lang == Lang::MiniF && !options.genF) continue;
      GenOptions gen;
      gen.lang = lang;
      gen.seed = iterSeed;
      gen.injectUndeclaredUse = options.injectUndeclaredUse;
      gen.injectDep = options.injectDep;
      gen.injectRange = options.injectRange;
      runProgram(i, generate(gen));
    }
  }

  report.transcript = transcript.str();
  return report;
}

ReplayResult replayCrashFile(const std::string &fileName, const std::string &content) {
  GeneratedProgram program;
  program.lang = lang::isFortranFile(fileName) ? Lang::MiniF : Lang::MiniC;
  program.model = "serial";
  program.seed = 1;
  program.source = content;

  const auto lines = str::splitLines(content);
  if (!lines.empty() && lines.front().find("svale-fuzz") != std::string::npos) {
    std::istringstream header(lines.front());
    std::string token;
    while (header >> token) {
      const auto eq = token.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "lang") program.lang = value == "f" ? Lang::MiniF : Lang::MiniC;
      else if (key == "model") program.model = value;
      else if (key == "seed") program.seed = std::strtoull(value.c_str(), nullptr, 10);
    }
  }
  program.fileName = program.lang == Lang::MiniC ? "fuzz.cpp" : "fuzz.f90";

  const auto failures = runOracles(program, kAllOracles);
  if (failures.empty()) return {true, ""};
  std::ostringstream os;
  os << fileName << ": " << failures.size() << " oracle failure(s):";
  for (const auto &f : failures) os << "\n  [" << oracleName(f.oracle) << "] " << f.message;
  return {false, os.str()};
}

} // namespace sv::fuzz
