#include "fuzz/oracles.hpp"

#include <algorithm>
#include <sstream>

#include "corpus/corpus.hpp"
#include "db/codebase.hpp"
#include "fuzz/irtext.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/printer.hpp"
#include "fuzz/rng.hpp"
#include "ir/dataflow.hpp"
#include "ir/lower.hpp"
#include "ir/verify.hpp"
#include "ir/range.hpp"
#include "lint/depslint.hpp"
#include "lint/irlint.hpp"
#include "lint/lint.hpp"
#include "lint/rangelint.hpp"
#include "minic/inliner.hpp"
#include "minic/lexer.hpp"
#include "minic/parser.hpp"
#include "minic/preprocessor.hpp"
#include "minic/sema.hpp"
#include "minic/semtree.hpp"
#include "minif/flexer.hpp"
#include "minif/fparser.hpp"
#include "minif/ftrees.hpp"
#include "silvervale/silvervale.hpp"
#include "support/strings.hpp"
#include "tree/tedbounds.hpp"
#include "tree/tedengine.hpp"
#include "vm/vm.hpp"

namespace sv::fuzz {

namespace {

using lang::ast::TranslationUnit;

constexpr u64 kVmMaxSteps = 2'000'000;

struct Parsed {
  lang::SourceManager sm;
  TranslationUnit tu;
};

/// Frontend over a single in-memory file; `sema` runs minic::analyse for C
/// (Fortran units are consumed as parsed, like db::parseUnits does).
[[nodiscard]] Parsed parseSource(const std::string &source, Lang lang,
                                 const std::string &fileName, bool sema) {
  Parsed p;
  const i32 id = p.sm.add(fileName, source);
  if (lang == Lang::MiniC) {
    const auto pre = minic::preprocess(p.sm, id);
    const auto toks = minic::lex(pre.text, id, &pre.lineOrigins);
    p.tu = minic::parseTranslationUnit(toks, fileName, p.sm);
    if (sema) (void)minic::analyse(p.tu);
  } else {
    const auto toks = minif::lexFortran(source, id);
    p.tu = minif::parseFortran(toks, fileName, p.sm);
  }
  return p;
}

[[nodiscard]] tree::Tree semTreeOf(const TranslationUnit &tu, Lang lang) {
  return lang == Lang::MiniC ? minic::buildSemTree(tu) : minif::buildFortranSemTree(tu);
}

[[nodiscard]] TranslationUnit cloneUnit(const TranslationUnit &u) {
  TranslationUnit out;
  out.fileName = u.fileName;
  out.includes = u.includes;
  out.programName = u.programName;
  for (const auto &s : u.structs) {
    lang::ast::StructDecl sd;
    sd.name = s.name;
    sd.loc = s.loc;
    for (const auto &f : s.fields) sd.fields.push_back(lang::ast::cloneParam(f));
    out.structs.push_back(std::move(sd));
  }
  for (const auto &g : u.globals)
    out.globals.push_back({lang::ast::cloneVarDecl(g.var), g.attributes, g.loc});
  for (const auto &f : u.functions) out.functions.push_back(lang::ast::cloneFunction(f));
  return out;
}

[[nodiscard]] std::string describeValue(const vm::Value &v) {
  if (v.isVoid()) return "void";
  if (std::holds_alternative<double>(v.v)) return str::fmtDouble(std::get<double>(v.v), 9);
  if (std::holds_alternative<i64>(v.v)) return std::to_string(std::get<i64>(v.v));
  if (std::holds_alternative<bool>(v.v)) return std::get<bool>(v.v) ? "true" : "false";
  if (std::holds_alternative<std::string>(v.v)) return "\"" + std::get<std::string>(v.v) + "\"";
  return "<object>";
}

[[nodiscard]] ir::Model modelOf(const GeneratedProgram &p) {
  return p.model == "omp" ? ir::Model::OpenMP : ir::Model::Serial;
}

// ------------------------------------------------------------- oracles --

[[nodiscard]] std::optional<std::string> checkRoundTrip(const GeneratedProgram &p) {
  auto first = parseSource(p.source, p.lang, p.fileName, /*sema=*/false);
  const std::string p1 = printUnit(first.tu, p.lang);
  Parsed second;
  try {
    second = parseSource(p1, p.lang, p.fileName, /*sema=*/false);
  } catch (const ParseError &e) {
    return std::string("printed source does not reparse: ") + e.what() + "\n--- printed ---\n" +
           p1;
  }
  const std::string p2 = printUnit(second.tu, p.lang);
  if (p1 != p2)
    return "print(parse(print)) not a fixpoint\n--- first ---\n" + p1 + "--- second ---\n" + p2;
  if (p.lang == Lang::MiniC) {
    (void)minic::analyse(first.tu);
    (void)minic::analyse(second.tu);
  }
  const u64 fp1 = semTreeOf(first.tu, p.lang).fingerprint();
  const u64 fp2 = semTreeOf(second.tu, p.lang).fingerprint();
  if (fp1 != fp2)
    return "T_sem fingerprint changed across print/reparse\n--- printed ---\n" + p1;
  return std::nullopt;
}

[[nodiscard]] std::optional<std::string> checkVm(const GeneratedProgram &p) {
  auto parsed = parseSource(p.source, p.lang, p.fileName, /*sema=*/true);
  vm::RunOptions opts;
  opts.fortran = p.lang == Lang::MiniF;
  opts.maxSteps = kVmMaxSteps;
  const auto base = vm::run(parsed.tu, opts);

  auto inlined = cloneUnit(parsed.tu);
  (void)minic::inlineUnit(inlined);
  const auto after = vm::run(inlined, opts);

  if (base.output != after.output)
    return "output diverged after inlining\n--- base ---\n" + base.output +
           "--- inlined ---\n" + after.output;
  if (base.steps != after.steps)
    return "step count diverged after inlining: " + std::to_string(base.steps) + " vs " +
           std::to_string(after.steps);
  if (base.coverage.coveredLineCount() != after.coverage.coveredLineCount())
    return "covered line count diverged after inlining";
  if (describeValue(base.returnValue) != describeValue(after.returnValue))
    return "return value diverged after inlining: " + describeValue(base.returnValue) + " vs " +
           describeValue(after.returnValue);
  return std::nullopt;
}

[[nodiscard]] std::optional<std::string> cfgFactsDiffer(const ir::Function &a,
                                                        const ir::Function &b) {
  const auto ca = ir::buildCfg(a), cb = ir::buildCfg(b);
  if (ca.succs != cb.succs || ca.preds != cb.preds || ca.reachable != cb.reachable ||
      ca.rpo != cb.rpo || ca.exits != cb.exits || ca.terminator != cb.terminator)
    return "CFG shape differs for " + a.name;
  const auto slotsA = ir::trackedSlots(a), slotsB = ir::trackedSlots(b);
  if (slotsA != slotsB) return "tracked slots differ for " + a.name;
  const auto rdA = ir::computeReachingDefs(a, ca, slotsA);
  const auto rdB = ir::computeReachingDefs(b, cb, slotsB);
  if (rdA.solution.in != rdB.solution.in || rdA.solution.out != rdB.solution.out)
    return "reaching-defs facts differ for " + a.name;
  const auto lvA = ir::computeLiveness(a, ca, slotsA);
  const auto lvB = ir::computeLiveness(b, cb, slotsB);
  if (lvA.solution.in != lvB.solution.in || lvA.solution.out != lvB.solution.out)
    return "liveness facts differ for " + a.name;
  return std::nullopt;
}

[[nodiscard]] std::optional<std::string> checkIr(const GeneratedProgram &p) {
  auto parsed = parseSource(p.source, p.lang, p.fileName, /*sema=*/true);
  const auto mod = ir::lower(parsed.tu, {modelOf(p)});
  if (const auto issues = ir::verify(mod); !issues.empty())
    return "lowered module fails ir::verify:\n" + ir::renderIssues(issues);
  const std::string text = ir::print(mod);
  ir::Module mod2;
  try {
    mod2 = parseIrText(text);
  } catch (const ParseError &e) {
    return std::string("printed IR does not reparse: ") + e.what();
  }
  if (const auto issues = ir::verify(mod2); !issues.empty())
    return "reparsed module fails ir::verify:\n" + ir::renderIssues(issues);
  if (ir::print(mod2) != text) return "ir::print round-trip not a fixpoint";
  if (mod.functions.size() != mod2.functions.size()) return "function count changed on reparse";
  for (usize i = 0; i < mod.functions.size(); ++i)
    if (auto why = cfgFactsDiffer(mod.functions[i], mod2.functions[i])) return why;
  return std::nullopt;
}

/// Same tree with every node's child order reversed; d(mir(a), mir(b)) ==
/// d(a, b) is the symmetry the Apted right-path kernels rely on.
[[nodiscard]] tree::Tree mirroredTree(const tree::Tree &t) {
  auto out = tree::Tree::leaf(t.node(0).label);
  std::vector<std::pair<tree::NodeId, tree::NodeId>> queue{{0, 0}}; // (src, dst)
  for (usize q = 0; q < queue.size(); ++q) {
    const auto [src, dst] = queue[q];
    for (tree::NodeId c = t.node(src).lastChild; c != tree::kNoNode; c = t.node(c).prevSibling)
      queue.emplace_back(c, out.addChild(dst, t.node(c).label));
  }
  return out;
}

[[nodiscard]] std::optional<std::string> checkTed(const GeneratedProgram &p,
                                                  OracleContext *context) {
  auto parsed = parseSource(p.source, p.lang, p.fileName, /*sema=*/p.lang == Lang::MiniC);
  const tree::Tree t = semTreeOf(parsed.tu, p.lang);
  tree::TedOptions engineOff; // algo defaults to Apted
  engineOff.useCache = false;
  const tree::TedOptions engineOn; // useCache defaults to true
  tree::TedOptions zsOff = engineOff;
  zsOff.algo = tree::TedAlgo::ZhangShasha;

  if (tree::ted(t, t, engineOff) != 0) return "d(T,T) != 0 (engine off)";
  if (tree::tedDispatch(t, t, engineOn) != 0) return "d(T,T) != 0 (engine on)";

  if (context) {
    for (const auto &q : context->tedPool) {
      const u64 onAb = tree::tedDispatch(t, q, engineOn);
      const u64 onBa = tree::tedDispatch(q, t, engineOn);
      if (onAb != onBa)
        return "TED not symmetric: " + std::to_string(onAb) + " vs " + std::to_string(onBa);
      const u64 off = tree::ted(t, q, engineOff);
      if (onAb != off)
        return "engine-on/off parity broken: " + std::to_string(onAb) + " vs " +
               std::to_string(off);
      // Cross-algorithm equality: the Apted default against the oracle.
      const u64 zs = tree::ted(t, q, zsOff);
      if (off != zs)
        return "Apted != ZhangShasha: " + std::to_string(off) + " vs " + std::to_string(zs);
    }

    // Metamorphic mutants against the oldest pool entry: simultaneous
    // sibling reversal and injective relabelling both preserve the
    // distance, engine off and on (the mutants are fresh Tree objects, so
    // the engine sees them purely through structural fingerprints).
    if (!context->tedPool.empty()) {
      const auto &q = context->tedPool.front();
      const u64 base = tree::ted(t, q, engineOff);
      const tree::Tree tm = mirroredTree(t), qm = mirroredTree(q);
      if (tree::ted(tm, qm, engineOff) != base)
        return "mirror invariance broken (engine off)";
      if (tree::tedDispatch(tm, qm, engineOn) != base)
        return "mirror invariance broken (engine on)";
      const auto tag = [](std::string_view s) { return std::string(s) + "\x01m"; };
      const tree::Tree tr = t.relabel(tag), qr = q.relabel(tag);
      if (tree::ted(tr, qr, engineOff) != base)
        return "injective relabel invariance broken (engine off)";
      if (tree::tedDispatch(tr, qr, engineOn) != base)
        return "injective relabel invariance broken (engine on)";
    }
    // Triangle inequality on sampled triples (a, t, b) from the pool.
    const usize n = std::min<usize>(context->tedPool.size(), 3);
    for (usize i = 0; i < n; ++i) {
      for (usize j = i + 1; j < n; ++j) {
        const auto &a = context->tedPool[i];
        const auto &b = context->tedPool[j];
        const u64 ab = tree::tedDispatch(a, b, engineOn);
        const u64 at = tree::tedDispatch(a, t, engineOn);
        const u64 tb = tree::tedDispatch(t, b, engineOn);
        if (ab > at + tb)
          return "triangle inequality violated: d(a,b)=" + std::to_string(ab) +
                 " > d(a,t)+d(t,b)=" + std::to_string(at + tb);
      }
    }
    context->tedPool.push_back(t);
    if (context->tedPool.size() > OracleContext::kPoolCap)
      context->tedPool.erase(context->tedPool.begin());
  }
  return std::nullopt;
}

[[nodiscard]] std::optional<std::string> checkLb(const GeneratedProgram &p,
                                                 OracleContext *context) {
  auto parsed = parseSource(p.source, p.lang, p.fileName, /*sema=*/p.lang == Lang::MiniC);
  const tree::Tree t = semTreeOf(parsed.tu, p.lang);
  const auto sigT = tree::boundSignature(t);
  const tree::TedCosts costs; // unit costs, the query layer's default
  tree::TedOptions engineOff;
  engineOff.useCache = false;
  const tree::TedOptions engineOn;

  // Identical trees: the exact distance is 0, so every admissible bound is.
  if (tree::tedLowerBound(sigT, sigT, costs) != 0) return "lb(T,T) != 0";

  if (context) {
    for (const auto &q : context->lbPool) {
      const auto sigQ = tree::boundSignature(q);
      const u64 exact = tree::ted(t, q, engineOff);

      const std::pair<const char *, u64> bounds[] = {
          {"size", tree::sizeLowerBound(sigT.n, sigQ.n, costs)},
          {"histogram", tree::histogramLowerBound(sigT, sigQ, costs)},
          {"branch-profile", tree::profileLowerBound(sigT, sigQ, costs)},
          {"max", tree::tedLowerBound(sigT, sigQ, costs)},
      };
      for (const auto &[name, lb] : bounds)
        if (lb > exact)
          return std::string(name) + " bound not admissible: lb=" + std::to_string(lb) +
                 " > exact=" + std::to_string(exact);

      // Cutoff contract: every entry point returns min(exact, cutoff), for a
      // cutoff below, at, and above the exact distance — in particular the
      // result agrees with the exact distance whenever exact < cutoff.
      for (const u64 cutoff : {exact / 2 + 1, exact + 1, exact + 7}) {
        const u64 want = std::min(exact, cutoff);
        for (const auto algo : {tree::TedAlgo::Apted, tree::TedAlgo::ZhangShasha}) {
          tree::TedOptions opts = engineOff;
          opts.algo = algo;
          opts.cutoff = cutoff;
          const u64 got = tree::ted(t, q, opts);
          if (got != want)
            return "cutoff contract broken (engine off, algo " +
                   std::to_string(static_cast<int>(algo)) + "): cutoff=" +
                   std::to_string(cutoff) + " exact=" + std::to_string(exact) +
                   " got=" + std::to_string(got);
        }
        tree::TedOptions onCut = engineOn;
        onCut.cutoff = cutoff;
        const u64 got = tree::tedDispatch(t, q, onCut);
        if (got != want)
          return "cutoff contract broken (engine on): cutoff=" + std::to_string(cutoff) +
                 " exact=" + std::to_string(exact) + " got=" + std::to_string(got);
      }
    }
    context->lbPool.push_back(t);
    if (context->lbPool.size() > OracleContext::kPoolCap)
      context->lbPool.erase(context->lbPool.begin());
  }
  return std::nullopt;
}

/// Location-insensitive diagnostic keys, sorted — mutation shifts lines.
[[nodiscard]] std::vector<std::string> diagKeys(const std::vector<lint::Diagnostic> &diags) {
  std::vector<std::string> keys;
  keys.reserve(diags.size());
  for (const auto &d : diags)
    keys.push_back(std::string(lint::name(d.check)) + "|" + lint::name(d.severity) + "|" +
                   d.symbol + "|" + d.directive + "|" + d.message);
  std::sort(keys.begin(), keys.end());
  return keys;
}

[[nodiscard]] std::string renderKeys(const std::vector<std::string> &keys) {
  return keys.empty() ? std::string("  (none)\n") : "  " + str::join(keys, "\n  ") + "\n";
}

[[nodiscard]] std::optional<std::string> checkLint(const GeneratedProgram &p) {
  auto first = parseSource(p.source, p.lang, p.fileName, /*sema=*/true);
  auto second = parseSource(p.source, p.lang, p.fileName, /*sema=*/true);
  const auto diags1 = lint::run(first.tu);
  const auto diags2 = lint::run(second.tu);
  if (diags1 != diags2) return "lint::run not deterministic across fresh parses";
  const auto ir1 = lint::runIr(ir::lower(first.tu, {modelOf(p)}));
  const auto ir2 = lint::runIr(ir::lower(second.tu, {modelOf(p)}));
  if (ir1 != ir2) return "lint::runIr not deterministic across fresh parses";

  Rng mrng(p.seed ^ 0x4d757461746f72ULL);
  const std::string mutant = mutateCommentsWhitespace(p.source, p.lang, mrng);
  Parsed mutated;
  try {
    mutated = parseSource(mutant, p.lang, p.fileName, /*sema=*/true);
  } catch (const ParseError &e) {
    return std::string("comment/whitespace mutant does not parse: ") + e.what() +
           "\n--- mutant ---\n" + mutant;
  }
  const auto keysBase = diagKeys(diags1);
  const auto keysMut = diagKeys(lint::run(mutated.tu));
  if (keysBase != keysMut)
    return "lint verdicts changed under comment/whitespace mutation\n--- base ---\n" +
           renderKeys(keysBase) + "--- mutant ---\n" + renderKeys(keysMut);
  if (semTreeOf(first.tu, p.lang).fingerprint() != semTreeOf(mutated.tu, p.lang).fingerprint())
    return "T_sem fingerprint changed under comment/whitespace mutation\n--- mutant ---\n" +
           mutant;
  return std::nullopt;
}

/// Frontend + lowering + the dependence lint tier over one source text.
[[nodiscard]] std::vector<lint::Diagnostic> depsVerdicts(const std::string &source, Lang lang,
                                                         const std::string &fileName,
                                                         ir::Model model) {
  auto parsed = parseSource(source, lang, fileName, /*sema=*/lang == Lang::MiniC);
  const auto mod = ir::lower(parsed.tu, {model});
  return lint::runDeps(mod, {.unit = &parsed.tu});
}

/// Symbol-insensitive verdict keys: check, severity and line survive an
/// identifier rename; symbol and message (which quotes names) do not.
[[nodiscard]] std::vector<std::string> depsLineKeys(const std::vector<lint::Diagnostic> &diags) {
  std::vector<std::string> keys;
  keys.reserve(diags.size());
  for (const auto &d : diags)
    keys.push_back(std::string(lint::name(d.check)) + "|" + lint::name(d.severity) + "|" +
                   std::to_string(d.loc.line));
  std::sort(keys.begin(), keys.end());
  return keys;
}

[[nodiscard]] std::optional<std::string> checkDeps(const GeneratedProgram &p) {
  const auto base = depsVerdicts(p.source, p.lang, p.fileName, modelOf(p));
  const auto again = depsVerdicts(p.source, p.lang, p.fileName, modelOf(p));
  if (base != again) return "lint::runDeps not deterministic across fresh parses";

  // Soundness invariant: a provably-parallel note and a fired loop-carried
  // race on the same loop would contradict each other.
  std::vector<std::string> parallel, raced;
  for (const auto &d : base) {
    const std::string where = d.directive + ":" + std::to_string(d.loc.line);
    if (d.check == lint::Check::ProvablyParallel) parallel.push_back(where);
    if (d.check == lint::Check::LoopCarriedRace) raced.push_back(where);
  }
  std::sort(parallel.begin(), parallel.end());
  std::sort(raced.begin(), raced.end());
  std::vector<std::string> both;
  std::set_intersection(parallel.begin(), parallel.end(), raced.begin(), raced.end(),
                        std::back_inserter(both));
  if (!both.empty())
    return "loop is both provably parallel and racing: " + str::join(both, ", ");

  // Comment/whitespace mutation preserves the verdicts modulo locations.
  Rng mrng(p.seed ^ 0x44657073ULL); // "Deps"
  const std::string wsMutant = mutateCommentsWhitespace(p.source, p.lang, mrng);
  std::vector<lint::Diagnostic> wsDiags;
  try {
    wsDiags = depsVerdicts(wsMutant, p.lang, p.fileName, modelOf(p));
  } catch (const ParseError &e) {
    return std::string("comment/whitespace mutant does not parse: ") + e.what();
  }
  if (diagKeys(base) != diagKeys(wsDiags))
    return "deps verdicts changed under comment/whitespace mutation\n--- base ---\n" +
           renderKeys(diagKeys(base)) + "--- mutant ---\n" + renderKeys(diagKeys(wsDiags));

  // A statement-order-preserving rename preserves them modulo symbols.
  const std::string renamed = mutateRenameIdentifiers(p.source);
  std::vector<lint::Diagnostic> rnDiags;
  try {
    rnDiags = depsVerdicts(renamed, p.lang, p.fileName, modelOf(p));
  } catch (const ParseError &e) {
    return std::string("renamed mutant does not parse: ") + e.what() + "\n--- renamed ---\n" +
           renamed;
  }
  if (depsLineKeys(base) != depsLineKeys(rnDiags))
    return "deps verdicts changed under identifier rename\n--- base ---\n" +
           renderKeys(depsLineKeys(base)) + "--- renamed ---\n" + renderKeys(depsLineKeys(rnDiags));
  return std::nullopt;
}

/// Frontend + lowering + the value-range lint tier over one source text.
[[nodiscard]] std::vector<lint::Diagnostic> rangeVerdicts(const std::string &source, Lang lang,
                                                          const std::string &fileName,
                                                          ir::Model model) {
  auto parsed = parseSource(source, lang, fileName, /*sema=*/lang == Lang::MiniC);
  return lint::runRange(ir::lower(parsed.tu, {model}));
}

[[nodiscard]] std::optional<std::string> checkRange(const GeneratedProgram &p) {
  const auto base = rangeVerdicts(p.source, p.lang, p.fileName, modelOf(p));
  const auto again = rangeVerdicts(p.source, p.lang, p.fileName, modelOf(p));
  if (base != again) return "lint::runRange not deterministic across fresh parses";

  // Comment/whitespace mutation preserves the verdicts modulo locations.
  Rng mrng(p.seed ^ 0x52616e6765ULL); // "Range"
  const std::string mutant = mutateCommentsWhitespace(p.source, p.lang, mrng);
  std::vector<lint::Diagnostic> mutDiags;
  try {
    mutDiags = rangeVerdicts(mutant, p.lang, p.fileName, modelOf(p));
  } catch (const ParseError &e) {
    return std::string("comment/whitespace mutant does not parse: ") + e.what();
  }
  if (diagKeys(base) != diagKeys(mutDiags))
    return "range verdicts changed under comment/whitespace mutation\n--- base ---\n" +
           renderKeys(diagKeys(base)) + "--- mutant ---\n" + renderKeys(diagKeys(mutDiags));

  // Soundness: every integer the VM observes being stored at a source line
  // lies inside the join of the static intervals of that line's IR stores.
  // The VM is the ground truth — an escaping observation is an unsound
  // interval, the worst bug this analysis can have.
  auto parsed = parseSource(p.source, p.lang, p.fileName, /*sema=*/p.lang == Lang::MiniC);
  const auto mod = ir::lower(parsed.tu, {modelOf(p)});
  const ir::ModuleFacts facts(mod);
  const auto ranges = ir::analyzeModuleRanges(facts);
  std::map<std::pair<i32, i32>, ir::Interval> staticAt;
  for (const auto &fn : mod.functions) {
    const auto *fr = ranges.rangesOf(fn.name);
    for (u32 b = 0; b < fn.blocks.size(); ++b) {
      for (const auto &in : fn.blocks[b].instrs) {
        if (in.op != "store" || in.operands.empty()) continue;
        if (in.type != "i32" && in.type != "i64") continue;
        if (in.file < 0 || in.line < 1) continue;
        const ir::Interval r = fr ? fr->valueAt(in.operands[0], b) : ir::Interval::top();
        const auto [it, fresh] = staticAt.try_emplace({in.file, in.line}, r);
        if (!fresh) it->second = it->second.join(r);
      }
    }
  }
  vm::RunOptions vopts;
  vopts.fortran = p.lang == Lang::MiniF;
  vopts.maxSteps = kVmMaxSteps;
  vopts.recordIntWrites = true;
  vm::RunResult run;
  try {
    run = vm::run(parsed.tu, vopts);
  } catch (const std::exception &) {
    // A program the VM rejects (e.g. another payload's seeded defect) has
    // no observations to check; the vm oracle owns reporting the crash.
    return std::nullopt;
  }
  for (const auto &[at, mm] : run.intWrites) {
    const auto it = staticAt.find(at);
    if (it == staticAt.end()) continue; // no integer store lowered at this line
    if (!it->second.contains(mm.first) || !it->second.contains(mm.second))
      return "VM observed [" + std::to_string(mm.first) + ", " + std::to_string(mm.second) +
             "] stored at line " + std::to_string(at.second) +
             " outside the static interval " + it->second.str();
  }

  // The seeded payload must fire both checks.
  if (p.injectRange) {
    bool oob = false, div = false;
    for (const auto &d : base) {
      oob = oob || d.check == lint::Check::OutOfBounds;
      div = div || d.check == lint::Check::DivisionByZero;
    }
    if (!oob || !div)
      return std::string("--inject-range payload not caught:") +
             (oob ? "" : " out-of-bounds missing") + (div ? "" : " division-by-zero missing");
  }
  return std::nullopt;
}

/// Thread-count invariance of indexing and linting over the generated
/// program: the serialised DB (frontend, trees, lowering) and the all-tier
/// lint report (every diagnostic list) at seeded 2–4 workers must be
/// byte-identical to the 1-worker reference.
[[nodiscard]] std::optional<std::string> checkPipeline(const GeneratedProgram &p) {
  db::Codebase cb;
  cb.app = "fuzz";
  cb.model = p.model;
  cb.addFile(p.fileName, p.source);
  db::CompileCommand cmd;
  cmd.file = p.fileName;
  cmd.args = {"cc", p.fileName};
  if (p.model == "omp") cmd.args.push_back("-fopenmp");
  cb.commands.push_back(std::move(cmd));

  const auto run = [&cb](usize threads) {
    db::IndexOptions index;
    index.threads = threads;
    silvervale::LintOptions lint;
    lint.ir = lint.deps = lint.range = true;
    lint.threads = threads;
    return std::pair{db::index(cb, index).db.serialise(),
                     silvervale::lintCodebase(cb, lint).renderText()};
  };
  const auto reference = run(1);

  const u64 mix = p.seed ^ 0x506970656cULL; // "Pipel"
  for (int round = 0; round < 3; ++round) {
    const usize threads = 2 + (mix >> (4 * round)) % 3;
    const auto [bytes, diags] = run(threads);
    if (bytes != reference.first)
      return "DB at " + std::to_string(threads) + " workers differs from the 1-worker reference";
    if (diags != reference.second)
      return "lint report at " + std::to_string(threads) +
             " workers differs from the 1-worker reference";
  }
  return std::nullopt;
}

} // namespace

const char *oracleName(Oracle o) {
  switch (o) {
  case Oracle::RoundTrip: return "round-trip";
  case Oracle::Vm: return "vm";
  case Oracle::Ir: return "ir";
  case Oracle::Ted: return "ted";
  case Oracle::Lint: return "lint";
  case Oracle::Lb: return "lb";
  case Oracle::Deps: return "deps";
  case Oracle::Range: return "range";
  case Oracle::Pipeline: return "pipeline";
  }
  return "?";
}

std::optional<Oracle> oracleFromName(std::string_view name) {
  for (const Oracle o : {Oracle::RoundTrip, Oracle::Vm, Oracle::Ir, Oracle::Ted, Oracle::Lint,
                         Oracle::Lb, Oracle::Deps, Oracle::Range, Oracle::Pipeline})
    if (name == oracleName(o)) return o;
  return std::nullopt;
}

tree::Tree semTree(const GeneratedProgram &program) {
  auto parsed = parseSource(program.source, program.lang, program.fileName,
                            /*sema=*/program.lang == Lang::MiniC);
  return semTreeOf(parsed.tu, program.lang);
}

bool parses(const std::string &source, Lang lang) {
  try {
    (void)parseSource(source, lang, lang == Lang::MiniC ? "fuzz.cpp" : "fuzz.f90",
                      /*sema=*/lang == Lang::MiniC);
    return true;
  } catch (const std::exception &) {
    return false;
  }
}

std::optional<std::vector<std::string>> reductionGate(const std::string &source, Lang lang) {
  try {
    auto p = parseSource(source, lang, lang == Lang::MiniC ? "fuzz.cpp" : "fuzz.f90",
                         /*sema=*/false);
    if (lang == Lang::MiniC) {
      auto names = minic::analyse(p.tu).unresolved;
      std::sort(names.begin(), names.end());
      names.erase(std::unique(names.begin(), names.end()), names.end());
      return names;
    }
    if (p.tu.programName.empty()) return std::nullopt; // no entry unit left
    return std::vector<std::string>{};
  } catch (const std::exception &) {
    return std::nullopt;
  }
}

std::vector<OracleFailure> runOracles(const GeneratedProgram &program, u32 mask,
                                      OracleContext *context) {
  std::vector<OracleFailure> failures;
  const auto runOne = [&](Oracle o, auto &&check) {
    if ((mask & oracleBit(o)) == 0) return;
    std::optional<std::string> why;
    try {
      why = check();
    } catch (const std::exception &e) {
      why = std::string("exception: ") + e.what();
    }
    if (why) failures.push_back({o, *why});
  };
  runOne(Oracle::RoundTrip, [&] { return checkRoundTrip(program); });
  runOne(Oracle::Vm, [&] { return checkVm(program); });
  runOne(Oracle::Ir, [&] { return checkIr(program); });
  runOne(Oracle::Ted, [&] { return checkTed(program, context); });
  runOne(Oracle::Lint, [&] { return checkLint(program); });
  runOne(Oracle::Lb, [&] { return checkLb(program, context); });
  runOne(Oracle::Deps, [&] { return checkDeps(program); });
  runOne(Oracle::Range, [&] { return checkRange(program); });
  runOne(Oracle::Pipeline, [&] { return checkPipeline(program); });
  return failures;
}

std::vector<OracleFailure> runCorpusMutationOracle(const std::string &app,
                                                   const std::string &model, u64 seed) {
  std::vector<OracleFailure> failures;
  try {
    const auto base = corpus::make(app, model);
    auto mutated = corpus::make(app, model);
    Rng rng(seed ^ 0x436f72707573ULL);
    for (const auto &f : base.sources.files()) {
      const Lang fileLang = lang::isFortranFile(f.name) ? Lang::MiniF : Lang::MiniC;
      mutated.addFile(f.name, mutateCommentsWhitespace(f.text, fileLang, rng));
    }
    const auto units1 = db::parseUnits(base);
    const auto units2 = db::parseUnits(mutated);
    if (units1.size() != units2.size()) {
      failures.push_back({Oracle::Lint, app + "/" + model + ": unit count changed"});
      return failures;
    }
    for (usize i = 0; i < units1.size(); ++i) {
      const auto &u1 = units1[i];
      const auto &u2 = units2[i];
      const auto k1 = diagKeys(lint::run(u1.tu));
      const auto k2 = diagKeys(lint::run(u2.tu));
      if (k1 != k2) {
        failures.push_back({Oracle::Lint, app + "/" + model + " " + u1.file +
                                              ": lint verdicts changed under mutation\n" +
                                              renderKeys(k1) + "--- mutant ---\n" +
                                              renderKeys(k2)});
        continue;
      }
      const Lang lang = u1.fortran ? Lang::MiniF : Lang::MiniC;
      if (semTreeOf(u1.tu, lang).fingerprint() != semTreeOf(u2.tu, lang).fingerprint())
        failures.push_back({Oracle::Lint, app + "/" + model + " " + u1.file +
                                              ": T_sem fingerprint changed under mutation"});
    }
  } catch (const std::exception &e) {
    failures.push_back(
        {Oracle::Lint, app + "/" + model + ": corpus mutant round threw: " + e.what()});
  }
  return failures;
}

} // namespace sv::fuzz
