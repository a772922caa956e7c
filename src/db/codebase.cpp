#include "db/codebase.hpp"

#include <set>

#include "ir/irtree.hpp"
#include "ir/lower.hpp"
#include "minic/inliner.hpp"
#include "minic/lexer.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "minic/semtree.hpp"
#include "minic/srctree.hpp"
#include "minif/fparser.hpp"
#include "minif/ftrees.hpp"
#include "support/compress.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"
#include "text/text.hpp"

namespace sv::db {

namespace {

std::string fileStem(const std::string &path) {
  auto slash = path.rfind('/');
  const auto base = slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

/// The unit's own files: the TU plus its non-system resolved includes.
std::vector<i32> unitFiles(const Codebase &cb, i32 mainFile,
                           const minic::PreprocessResult &pp) {
  std::vector<i32> out{mainFile};
  for (const auto &inc : pp.includes) {
    // Mirror the preprocessor's resolution order: includer-relative, exact,
    // then the include/ system prefix.
    i32 resolved = -1;
    if (inc.loc.file >= 0) {
      const auto &includer = cb.sources.file(inc.loc.file).name;
      if (const auto slash = includer.rfind('/'); slash != std::string::npos)
        if (const auto id = cb.sources.idOf(includer.substr(0, slash + 1) + inc.path))
          resolved = *id;
    }
    if (resolved < 0)
      if (const auto id = cb.sources.idOf(inc.path)) resolved = *id;
    if (resolved < 0)
      if (const auto id = cb.sources.idOf("include/" + inc.path)) resolved = *id;
    if (resolved < 0) continue;
    if (pp.systemFiles.count(resolved)) continue;
    if (std::find(out.begin(), out.end(), resolved) == out.end()) out.push_back(resolved);
  }
  return out;
}

/// The perceived-metric inputs and the four frontend trees of one parsed
/// unit (everything but T_ir).
void buildTrees(const Codebase &cb, i32 fileId, const ParsedUnit &parsed, UnitEntry &unit) {
  if (parsed.fortran) {
    const auto &text = cb.sources.file(fileId).text;
    unit.normText = text::normalise(text, minif::fortranCommentRanges(text));
    unit.sloc = text::sloc(unit.normText);
    unit.lloc = text::lloc(unit.normText, /*fortran=*/true);
    // Fortran has no preprocessing phase here; +pp variants alias the base.
    unit.normTextPp = unit.normText;
    unit.slocPp = unit.sloc;
    unit.llocPp = unit.lloc;

    const auto toks = minif::lexFortran(text, fileId);
    unit.tsrc = minif::buildFortranSrcTree(toks);
    unit.tsrcPp = unit.tsrc;
    unit.tsem = minif::buildFortranSemTree(parsed.tu);
    unit.tsemI = unit.tsem; // inlining is not implemented for GFortran (IV-B)
    return;
  }

  const auto &pp = parsed.pp;
  // ---- perceived metric inputs -----------------------------------------
  const auto files = unitFiles(cb, fileId, pp);
  for (usize i = 1; i < files.size(); ++i)
    unit.deps.push_back(cb.sources.file(files[i]).name);
  for (const i32 f : files) {
    const auto &text = cb.sources.file(f).text;
    unit.normText += text::normalise(text, minic::commentRanges(text));
  }
  unit.sloc = text::sloc(unit.normText);
  unit.lloc = text::lloc(unit.normText);

  // +pp: preprocessed text with system-origin lines removed.
  {
    const auto lines = str::splitLines(pp.text);
    std::string kept;
    for (usize i = 0; i < lines.size(); ++i) {
      const auto origin = i < pp.lineOrigins.size() ? pp.lineOrigins[i]
                                                    : lang::Location{};
      if (origin.file >= 0 && pp.systemFiles.count(origin.file)) continue;
      kept += lines[i];
      kept += '\n';
    }
    unit.normTextPp = text::normalise(kept);
    unit.slocPp = text::sloc(unit.normTextPp);
    unit.llocPp = text::lloc(unit.normTextPp);
  }

  // ---- T_src ----------------------------------------------------------
  {
    // Per-file token trees grafted under a unit root.
    unit.tsrc = tree::Tree::leaf("unit");
    for (const i32 f : files) {
      const auto toks = minic::lex(cb.sources.file(f).text, f, nullptr, /*allowDirectives=*/true);
      unit.tsrc.graft(0, minic::buildSrcTree(toks));
    }
    const auto ppToks = minic::lex(pp.text, fileId, &pp.lineOrigins);
    // Preprocessed tree keeps system tokens out via pruning on file origin.
    auto full = minic::buildSrcTree(ppToks);
    unit.tsrcPp = full.pruneWhere([&](const tree::Node &n) {
      return n.file < 0 || pp.systemFiles.count(n.file) == 0;
    });
  }

  minic::SemTreeOptions semOpts;
  for (const i32 f : pp.systemFiles) semOpts.maskedFiles.insert(f);
  unit.tsem = minic::buildSemTree(parsed.tu, semOpts);

  {
    // TranslationUnit holds unique_ptrs; clone explicitly for the inliner.
    const auto &tu = parsed.tu;
    lang::ast::TranslationUnit clone;
    clone.fileName = tu.fileName;
    clone.includes = tu.includes;
    clone.programName = tu.programName;
    for (const auto &s : tu.structs) {
      lang::ast::StructDecl sc;
      sc.name = s.name;
      sc.loc = s.loc;
      for (const auto &f : s.fields) sc.fields.push_back(lang::ast::cloneParam(f));
      clone.structs.push_back(std::move(sc));
    }
    for (const auto &g : tu.globals) {
      lang::ast::GlobalVarDecl gg;
      gg.var = lang::ast::cloneVarDecl(g.var);
      gg.attributes = g.attributes;
      gg.loc = g.loc;
      clone.globals.push_back(std::move(gg));
    }
    for (const auto &f : tu.functions) clone.functions.push_back(lang::ast::cloneFunction(f));
    minic::InlineOptions inlOpts;
    inlOpts.systemFiles = {pp.systemFiles.begin(), pp.systemFiles.end()};
    minic::inlineUnit(clone, inlOpts);
    unit.tsemI = minic::buildSemTree(clone, semOpts);
  }
}

/// One translation unit through every indexing stage in sequence:
/// frontend → trees → lower (T_ir) → bound signatures.
UnitEntry indexUnit(const Codebase &cb, const CompileCommand &cmd) {
  const ParsedUnit parsed = parseUnit(cb, cmd);
  const i32 fileId = *cb.sources.idOf(cmd.file);
  UnitEntry unit;
  unit.file = cmd.file;
  unit.role = fileStem(cmd.file);
  unit.fortran = parsed.fortran;
  buildTrees(cb, fileId, parsed, unit);

  const auto module = ir::lower(parsed.tu, {.model = parsed.model});
  auto irTree = ir::buildIrTree(module);
  if (parsed.fortran) {
    unit.tir = std::move(irTree);
  } else {
    // Mask functions/globals defined in system headers out of T_ir.
    unit.tir = irTree.pruneWhere([&](const tree::Node &n) {
      const bool isTopLevel = str::startsWith(n.label, "Function:");
      if (!isTopLevel) return true;
      return n.file < 0 || parsed.pp.systemFiles.count(n.file) == 0;
    });
  }
  unit.computeSignatures();
  return unit;
}

} // namespace

ParsedUnit parseUnit(const Codebase &codebase, const CompileCommand &cmd) {
  const auto fileId = codebase.sources.idOf(cmd.file);
  SV_CHECK(fileId.has_value(), "compile command references unknown file " + cmd.file);
  ParsedUnit u;
  u.file = cmd.file;
  u.model = modelFromCommand(cmd);
  if (isFortranFile(cmd.file)) {
    u.fortran = true;
    u.tu = minif::parseFortran(
        minif::lexFortran(codebase.sources.file(*fileId).text, *fileId), cmd.file,
        codebase.sources);
  } else {
    minic::PreprocessOptions ppOpts;
    ppOpts.defines = definesFromCommand(cmd);
    u.pp = minic::preprocess(codebase.sources, *fileId, ppOpts);
    const auto toks = minic::lex(u.pp.text, *fileId, &u.pp.lineOrigins);
    u.tu = minic::parseTranslationUnit(toks, cmd.file, codebase.sources);
    u.tu.includes = u.pp.includes;
    minic::analyse(u.tu);
  }
  return u;
}

lang::ast::TranslationUnit linkForExecution(const Codebase &codebase) {
  lang::ast::TranslationUnit merged;
  merged.fileName = codebase.app + "/" + codebase.model;
  for (const auto &cmd : codebase.commands) {
    auto parsed = parseUnit(codebase, cmd);
    auto &tu = parsed.tu;
    if (parsed.fortran) {
      for (auto &f : tu.functions) merged.functions.push_back(std::move(f));
      for (auto &g : tu.globals) merged.globals.push_back(std::move(g));
      for (auto &s : tu.structs) merged.structs.push_back(std::move(s));
      if (!tu.programName.empty()) merged.programName = tu.programName;
      continue;
    }
    for (auto &f : tu.functions) {
      // Only definitions matter to the VM; headers spliced into several
      // TUs would otherwise duplicate them — keep the first definition.
      if (!f.body) continue;
      const bool dup = std::any_of(merged.functions.begin(), merged.functions.end(),
                                   [&](const auto &existing) { return existing.name == f.name; });
      if (!dup) merged.functions.push_back(std::move(f));
    }
    for (auto &g : tu.globals) {
      const bool dup = std::any_of(merged.globals.begin(), merged.globals.end(),
                                   [&](const auto &e) { return e.var.name == g.var.name; });
      if (!dup) merged.globals.push_back(std::move(g));
    }
    for (auto &s : tu.structs) merged.structs.push_back(std::move(s));
  }
  return merged;
}

std::vector<ParsedUnit> parseUnits(const Codebase &codebase) {
  std::vector<ParsedUnit> out;
  for (const auto &cmd : codebase.commands) out.push_back(parseUnit(codebase, cmd));
  return out;
}

LoweredUnit lowerParsed(ParsedUnit parsed) {
  LoweredUnit u;
  u.file = std::move(parsed.file);
  u.model = parsed.model;
  ir::LowerOptions lowOpts;
  lowOpts.model = parsed.model;
  u.module = ir::lower(parsed.tu, lowOpts);
  return u;
}

std::vector<LoweredUnit> lowerUnits(const Codebase &codebase) {
  std::vector<LoweredUnit> out;
  for (auto &parsed : parseUnits(codebase)) out.push_back(lowerParsed(std::move(parsed)));
  return out;
}

std::vector<IndexResult> indexBatch(const std::vector<const Codebase *> &codebases,
                                    const IndexOptions &options) {
  std::vector<IndexResult> results(codebases.size());

  // Per-codebase DB headers and pre-sized unit slots (serial: cheap metadata).
  struct Slot {
    usize codebase, unit;
  };
  std::vector<Slot> slots;
  for (usize c = 0; c < codebases.size(); ++c) {
    const Codebase &cb = *codebases[c];
    auto &out = results[c].db;
    out.app = cb.app;
    out.model = cb.model;
    out.fortran = !cb.commands.empty() && isFortranFile(cb.commands[0].file);
    out.modelKind = cb.commands.empty() ? ir::Model::Serial : modelFromCommand(cb.commands[0]);
    for (const auto &f : cb.sources.files()) out.fileNames.push_back(f.name);
    out.units.resize(cb.commands.size());
    for (usize k = 0; k < cb.commands.size(); ++k) slots.push_back({c, k});
  }

  // One for-each over the flattened unit stream, across codebase
  // boundaries: a slow unit of one port never stalls the others. Each task
  // writes its own slot, so completion order never shows in the DB.
  parallelFor(
      slots.size(),
      [&](usize i) {
        const auto [c, k] = slots[i];
        results[c].db.units[k] = indexUnit(*codebases[c], codebases[c]->commands[k]);
      },
      options.threads, "db-index");

  if (options.runCoverage) {
    // Coverage executes the linked program per codebase — its own for-each
    // node, downstream of indexing (the VM needs every TU of a codebase at
    // once).
    parallelFor(
        codebases.size(),
        [&](usize c) {
          auto &result = results[c];
          const auto merged = linkForExecution(*codebases[c]);
          vm::RunOptions runOptions;
          runOptions.fortran = result.db.fortran;
          auto runResult = vm::run(merged, runOptions);
          result.db.coverage = runResult.coverage;
          result.db.hasCoverage = true;
          result.coverageRun = std::move(runResult);
        },
        options.threads, "db-coverage");
  }
  return results;
}

IndexResult index(const Codebase &codebase, const IndexOptions &options) {
  return std::move(indexBatch({&codebase}, options).front());
}

// ------------------------------------------------------------ serialise --

namespace {

msgpack::Value unitToMsg(const UnitEntry &u) {
  msgpack::Map m;
  m.emplace("file", u.file);
  m.emplace("role", u.role);
  m.emplace("fortran", u.fortran);
  msgpack::Array deps;
  for (const auto &d : u.deps) deps.emplace_back(d);
  m.emplace("deps", std::move(deps));
  m.emplace("normText", u.normText);
  m.emplace("normTextPp", u.normTextPp);
  m.emplace("sloc", u.sloc);
  m.emplace("lloc", u.lloc);
  m.emplace("slocPp", u.slocPp);
  m.emplace("llocPp", u.llocPp);
  m.emplace("tsrc", u.tsrc.toMsgpack());
  m.emplace("tsrcPp", u.tsrcPp.toMsgpack());
  m.emplace("tsem", u.tsem.toMsgpack());
  m.emplace("tsemI", u.tsemI.toMsgpack());
  m.emplace("tir", u.tir.toMsgpack());
  return msgpack::Value(std::move(m));
}

UnitEntry unitFromMsg(const msgpack::Value &v) {
  UnitEntry u;
  u.file = v.at("file").asString();
  u.role = v.at("role").asString();
  u.fortran = v.at("fortran").asBool();
  for (const auto &d : v.at("deps").asArray()) u.deps.push_back(d.asString());
  u.normText = v.at("normText").asString();
  u.normTextPp = v.at("normTextPp").asString();
  u.sloc = static_cast<usize>(v.at("sloc").asInt());
  u.lloc = static_cast<usize>(v.at("lloc").asInt());
  u.slocPp = static_cast<usize>(v.at("slocPp").asInt());
  u.llocPp = static_cast<usize>(v.at("llocPp").asInt());
  u.tsrc = tree::Tree::fromMsgpack(v.at("tsrc"));
  u.tsrcPp = tree::Tree::fromMsgpack(v.at("tsrcPp"));
  u.tsem = tree::Tree::fromMsgpack(v.at("tsem"));
  u.tsemI = tree::Tree::fromMsgpack(v.at("tsemI"));
  u.tir = tree::Tree::fromMsgpack(v.at("tir"));
  // Signatures are derived, never read: a DB file cannot forge a bound. A
  // "sigs" key written by older versions is ignored.
  u.computeSignatures();
  return u;
}

} // namespace

void UnitEntry::computeSignatures() {
  sigTsrc = tree::boundSignature(tsrc);
  sigTsrcPp = tree::boundSignature(tsrcPp);
  sigTsem = tree::boundSignature(tsem);
  sigTsemI = tree::boundSignature(tsemI);
  sigTir = tree::boundSignature(tir);
}

std::vector<u8> CodebaseDb::serialise() const {
  msgpack::Map m;
  m.emplace("app", app);
  m.emplace("model", model);
  m.emplace("modelKind", static_cast<i64>(modelKind));
  m.emplace("fortran", fortran);
  msgpack::Array names;
  for (const auto &n : fileNames) names.emplace_back(n);
  m.emplace("fileNames", std::move(names));
  msgpack::Array us;
  for (const auto &u : units) us.push_back(unitToMsg(u));
  m.emplace("units", std::move(us));
  m.emplace("hasCoverage", hasCoverage);
  msgpack::Array cov;
  for (const auto &[key, count] : coverage.lineHits) {
    msgpack::Array row;
    row.emplace_back(static_cast<i64>(key.first));
    row.emplace_back(static_cast<i64>(key.second));
    row.emplace_back(static_cast<i64>(count));
    cov.emplace_back(std::move(row));
  }
  m.emplace("coverage", std::move(cov));
  return svz::compress(msgpack::encode(msgpack::Value(std::move(m))));
}

CodebaseDb CodebaseDb::deserialise(const std::vector<u8> &bytes) {
  const auto v = msgpack::decode(svz::decompress(bytes));
  CodebaseDb db;
  db.app = v.at("app").asString();
  db.model = v.at("model").asString();
  db.modelKind = static_cast<ir::Model>(v.at("modelKind").asInt());
  db.fortran = v.at("fortran").asBool();
  for (const auto &n : v.at("fileNames").asArray()) db.fileNames.push_back(n.asString());
  for (const auto &u : v.at("units").asArray()) db.units.push_back(unitFromMsg(u));
  db.hasCoverage = v.at("hasCoverage").asBool();
  for (const auto &row : v.at("coverage").asArray()) {
    const auto &r = row.asArray();
    db.coverage.lineHits[{static_cast<i32>(r[0].asInt()), static_cast<i32>(r[1].asInt())}] =
        static_cast<u64>(r[2].asInt());
  }
  return db;
}

} // namespace sv::db
