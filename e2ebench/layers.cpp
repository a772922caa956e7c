#include "layers.hpp"

#include <algorithm>

#include "db/compiledb.hpp"
#include "ir/irtree.hpp"
#include "ir/lower.hpp"
#include "lint/depslint.hpp"
#include "lint/irlint.hpp"
#include "lint/rangelint.hpp"
#include "minic/inliner.hpp"
#include "minic/lexer.hpp"
#include "minic/parser.hpp"
#include "minic/preprocessor.hpp"
#include "minic/sema.hpp"
#include "minic/semtree.hpp"
#include "minic/srctree.hpp"
#include "minif/flexer.hpp"
#include "minif/fparser.hpp"
#include "minif/ftrees.hpp"
#include "support/strings.hpp"
#include "text/text.hpp"
#include "tree/tedengine.hpp"

namespace e2e::layers {

using namespace sv;

namespace {

// The helpers below restate db/codebase.cpp's unit stages (frontend → trees
// → lower → sign) call for call; only the spans are new.

std::string fileStem(const std::string &path) {
  const auto slash = path.rfind('/');
  const auto base = slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

std::vector<i32> unitFiles(const db::Codebase &cb, i32 mainFile,
                           const minic::PreprocessResult &pp) {
  std::vector<i32> out{mainFile};
  for (const auto &inc : pp.includes) {
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

struct Frontend {
  minic::PreprocessResult pp;
  lang::ast::TranslationUnit tu;
};

Frontend frontendC(const db::Codebase &cb, const db::CompileCommand &cmd, i32 fileId,
                   PassCtx &ctx) {
  Frontend f;
  minic::PreprocessOptions ppOpts;
  ppOpts.defines = db::definesFromCommand(cmd);
  f.pp = traced("frontend.pp", [&] { return minic::preprocess(cb.sources, fileId, ppOpts); });
  const auto toks =
      traced("frontend.lex", [&] { return minic::lex(f.pp.text, fileId, &f.pp.lineOrigins); });
  ctx.counters["frontend.tokens"] += static_cast<double>(toks.size());
  f.tu = traced("frontend.parse",
                [&] { return minic::parseTranslationUnit(toks, cmd.file, cb.sources); });
  f.tu.includes = f.pp.includes;
  traced("frontend.sema", [&] { return minic::analyse(f.tu); });
  return f;
}

lang::ast::TranslationUnit frontendFortran(const db::Codebase &cb, const db::CompileCommand &cmd,
                                           i32 fileId, PassCtx &ctx) {
  Scope s("frontend.fortran");
  const auto toks = minif::lexFortran(cb.sources.file(fileId).text, fileId);
  ctx.counters["frontend.tokens"] += static_cast<double>(toks.size());
  return minif::parseFortran(toks, cmd.file, cb.sources);
}

void treesFortran(const db::Codebase &cb, i32 fileId, const lang::ast::TranslationUnit &tu,
                  db::UnitEntry &unit) {
  const auto &text = cb.sources.file(fileId).text;
  {
    Scope s("trees.text");
    unit.normText = text::normalise(text, minif::fortranCommentRanges(text));
    unit.sloc = text::sloc(unit.normText);
    unit.lloc = text::lloc(unit.normText, /*fortran=*/true);
    unit.normTextPp = unit.normText;
    unit.slocPp = unit.sloc;
    unit.llocPp = unit.lloc;
  }
  {
    Scope s("trees.tsrc");
    unit.tsrc = minif::buildFortranSrcTree(minif::lexFortran(text, fileId));
    unit.tsrcPp = unit.tsrc;
  }
  {
    Scope s("trees.tsem");
    unit.tsem = minif::buildFortranSemTree(tu);
    unit.tsemI = unit.tsem;
  }
}

void treesC(const db::Codebase &cb, i32 fileId, const Frontend &f, db::UnitEntry &unit) {
  const auto &pp = f.pp;
  std::vector<i32> files;
  {
    Scope s("trees.text");
    files = unitFiles(cb, fileId, pp);
    for (usize i = 1; i < files.size(); ++i) unit.deps.push_back(cb.sources.file(files[i]).name);
    for (const i32 file : files) {
      const auto &text = cb.sources.file(file).text;
      unit.normText += text::normalise(text, minic::commentRanges(text));
    }
    unit.sloc = text::sloc(unit.normText);
    unit.lloc = text::lloc(unit.normText);
    const auto lines = str::splitLines(pp.text);
    std::string kept;
    for (usize i = 0; i < lines.size(); ++i) {
      const auto origin = i < pp.lineOrigins.size() ? pp.lineOrigins[i] : lang::Location{};
      if (origin.file >= 0 && pp.systemFiles.count(origin.file)) continue;
      kept += lines[i];
      kept += '\n';
    }
    unit.normTextPp = text::normalise(kept);
    unit.slocPp = text::sloc(unit.normTextPp);
    unit.llocPp = text::lloc(unit.normTextPp);
  }
  {
    Scope s("trees.tsrc");
    unit.tsrc = tree::Tree::leaf("unit");
    for (const i32 file : files) {
      const auto toks =
          minic::lex(cb.sources.file(file).text, file, nullptr, /*allowDirectives=*/true);
      unit.tsrc.graft(0, minic::buildSrcTree(toks));
    }
    const auto ppToks = minic::lex(pp.text, fileId, &pp.lineOrigins);
    const auto full = minic::buildSrcTree(ppToks);
    unit.tsrcPp = full.pruneWhere([&](const tree::Node &n) {
      return n.file < 0 || pp.systemFiles.count(n.file) == 0;
    });
  }
  minic::SemTreeOptions semOpts;
  for (const i32 file : pp.systemFiles) semOpts.maskedFiles.insert(file);
  traced("trees.tsem", [&] { unit.tsem = minic::buildSemTree(f.tu, semOpts); });

  lang::ast::TranslationUnit clone;
  {
    Scope s("trees.inline");
    const auto &tu = f.tu;
    clone.fileName = tu.fileName;
    clone.includes = tu.includes;
    clone.programName = tu.programName;
    for (const auto &st : tu.structs) {
      lang::ast::StructDecl sc;
      sc.name = st.name;
      sc.loc = st.loc;
      for (const auto &field : st.fields) sc.fields.push_back(lang::ast::cloneParam(field));
      clone.structs.push_back(std::move(sc));
    }
    for (const auto &g : tu.globals) {
      lang::ast::GlobalVarDecl gg;
      gg.var = lang::ast::cloneVarDecl(g.var);
      gg.attributes = g.attributes;
      gg.loc = g.loc;
      clone.globals.push_back(std::move(gg));
    }
    for (const auto &fn : tu.functions) clone.functions.push_back(lang::ast::cloneFunction(fn));
    minic::InlineOptions inlOpts;
    inlOpts.systemFiles = {pp.systemFiles.begin(), pp.systemFiles.end()};
    minic::inlineUnit(clone, inlOpts);
  }
  traced("trees.tsem", [&] { unit.tsemI = minic::buildSemTree(clone, semOpts); });
}

db::UnitEntry indexUnit(const db::Codebase &cb, const db::CompileCommand &cmd, PassCtx &ctx) {
  const auto fileId = cb.sources.idOf(cmd.file);
  SV_CHECK(fileId.has_value(), "compile command references unknown file " + cmd.file);
  db::UnitEntry unit;
  unit.file = cmd.file;
  unit.role = fileStem(cmd.file);
  const bool fortran = db::isFortranFile(cmd.file);
  Frontend f;
  if (fortran) {
    unit.fortran = true;
    f.tu = frontendFortran(cb, cmd, *fileId, ctx);
    treesFortran(cb, *fileId, f.tu, unit);
  } else {
    f = frontendC(cb, cmd, *fileId, ctx);
    treesC(cb, *fileId, f, unit);
  }

  ir::LowerOptions lowOpts;
  lowOpts.model = db::modelFromCommand(cmd);
  const auto module = traced("lower", [&] { return ir::lower(f.tu, lowOpts); });
  ctx.counters["lower.instrs"] += static_cast<double>(module.instrCount());
  {
    Scope s("trees.tir");
    auto irTree = ir::buildIrTree(module);
    if (fortran) {
      unit.tir = std::move(irTree);
    } else {
      unit.tir = irTree.pruneWhere([&](const tree::Node &n) {
        if (!str::startsWith(n.label, "Function:")) return true;
        return n.file < 0 || f.pp.systemFiles.count(n.file) == 0;
      });
    }
  }
  traced("sign", [&] { unit.computeSignatures(); });
  ctx.counters["trees.nodes"] += static_cast<double>(
      unit.tsrc.size() + unit.tsrcPp.size() + unit.tsem.size() + unit.tsemI.size() +
      unit.tir.size());
  return unit;
}

} // namespace

std::vector<silvervale::CorpusPort> indexAllPorts(PassCtx &ctx) {
  std::vector<silvervale::CorpusPort> out;
  for (const auto &app : corpus::appNames()) {
    for (const auto &model : corpus::modelsOf(app)) {
      const auto cb = traced("corpus", [&] { return corpus::make(app, model); });
      silvervale::CorpusPort port;
      port.label = app + "/" + model;
      auto &d = port.db;
      d.app = cb.app;
      d.model = cb.model;
      d.fortran = !cb.commands.empty() && db::isFortranFile(cb.commands[0].file);
      d.modelKind = cb.commands.empty() ? ir::Model::Serial : db::modelFromCommand(cb.commands[0]);
      for (const auto &file : cb.sources.files()) d.fileNames.push_back(file.name);
      for (const auto &cmd : cb.commands) d.units.push_back(indexUnit(cb, cmd, ctx));
      out.push_back(std::move(port));
    }
  }
  return out;
}

lint::Report lintCodebase(const db::Codebase &codebase, PassCtx &ctx) {
  lint::Report report;
  report.app = codebase.app;
  report.model = codebase.model;
  for (const auto &cmd : codebase.commands) {
    const auto fileId = codebase.sources.idOf(cmd.file);
    SV_CHECK(fileId.has_value(), "parseUnit: unknown file " + cmd.file);
    lang::ast::TranslationUnit tu =
        db::isFortranFile(cmd.file) ? frontendFortran(codebase, cmd, *fileId, ctx)
                                    : frontendC(codebase, cmd, *fileId, ctx).tu;
    lint::UnitReport unit;
    unit.file = cmd.file;
    unit.diags = traced("lint.ast", [&] { return lint::run(tu); });
    ir::LowerOptions lowOpts;
    lowOpts.model = db::modelFromCommand(cmd);
    const auto module = traced("lower", [&] { return ir::lower(tu, lowOpts); });
    ctx.counters["lower.instrs"] += static_cast<double>(module.instrCount());
    const auto append = [&unit](std::vector<lint::Diagnostic> diags) {
      unit.diags.insert(unit.diags.end(), diags.begin(), diags.end());
    };
    append(traced("lint.ir", [&] { return lint::runIr(module); }));
    append(traced("lint.deps", [&] { return lint::runDeps(module, {.unit = &tu}); }));
    append(traced("lint.range", [&] { return lint::runRange(module); }));
    report.units.push_back(std::move(unit));
  }
  return report;
}

void buildViews(const std::vector<const db::CodebaseDb *> &dbs, metrics::Metric metric) {
  for (const auto *d : dbs)
    for (const auto &u : d->units)
      (void)tree::TedEngine::global().views(metrics::metricTree(u, metric));
}

} // namespace e2e::layers
