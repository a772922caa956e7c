// Robustness and failure-injection tests: malformed input must produce
// FrontendError/ParseError/VmError — never crashes, hangs or silent
// acceptance — and the pipeline must be bit-for-bit deterministic.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <random>

#include "corpus/corpus.hpp"
#include "db/codebase.hpp"
#include "metrics/query.hpp"
#include "minic/parser.hpp"
#include "minic/preprocessor.hpp"
#include "minic/sema.hpp"
#include "minif/fparser.hpp"
#include "silvervale/silvervale.hpp"
#include "support/compress.hpp"
#include "support/msgpack.hpp"
#include "tree/ted.hpp"
#include "tree/tedengine.hpp"
#include "vm/vm.hpp"

using namespace sv;

namespace {
lang::SourceManager gSm;

void tryFrontend(const std::string &src) {
  try {
    auto tu = minic::parseTranslationUnit(minic::lex(src, 0, nullptr, true), "fuzz.cpp", gSm);
    minic::analyse(tu);
  } catch (const lang::FrontendError &) {
    // rejected: fine
  } catch (const ParseError &) {
  }
}

/// `x` inside `minuses` unary minuses inside `parens` parentheses. As the
/// operand of a statement its deepest node sits at recursive-descent depth
/// 3 + 2 * parens + minuses: the statement, its expression and that
/// expression's unary, then an expression and a unary per parenthesis and
/// one unary per minus.
std::string nestedOperand(usize parens, usize minuses) {
  std::string e;
  for (usize i = 0; i < minuses; ++i) e += "- ";
  return std::string(parens, '(') + e + "x" + std::string(parens, ')');
}

std::string nestedC(usize parens, usize minuses) {
  return "int f(int x) {\n  return " + nestedOperand(parens, minuses) +
         ";\n}\nint main() {\n  return f(1);\n}\n";
}

std::string nestedFortran(usize parens, usize minuses) {
  return "program p\n  implicit none\n  integer :: x, y\n  x = 1\n  y = " +
         nestedOperand(parens, minuses) + "\n  print *, y\nend program p\n";
}

/// Half the nesting budget in parentheses, the rest in unary minuses, so
/// the AST itself is deep too; `extra` levels beyond the bound.
constexpr usize kLimitParens = (lang::kMaxNesting - 3) / 4;
constexpr usize limitMinuses(usize extra) {
  return lang::kMaxNesting - 3 - 2 * kLimitParens + extra;
}

db::Codebase oneFileCodebase(const std::string &file, const std::string &text,
                             const std::string &compiler) {
  db::Codebase cb;
  cb.app = "nesting";
  cb.model = "serial";
  cb.addFile(file, text);
  db::CompileCommand cmd;
  cmd.file = file;
  cmd.args = {compiler, file};
  cb.commands.push_back(cmd);
  return cb;
}

void tryFortran(const std::string &src) {
  try {
    (void)minif::parseFortran(minif::lexFortran(src, 0), "fuzz.f90", gSm);
  } catch (const lang::FrontendError &) {
  } catch (const ParseError &) {
  }
}
} // namespace

// ------------------------------------------------------------- fuzzing ---

class FrontendFuzz : public ::testing::TestWithParam<u32> {};

TEST_P(FrontendFuzz, RandomTokenSoupNeverCrashes) {
  std::mt19937 rng(GetParam());
  static const char *pieces[] = {"int",   "double", "for",  "(",      ")",     "{",    "}",
                                 "[",     "]",      ";",    "=",      "+",     "a",    "b",
                                 "42",    "1.5",    "if",   "return", "&&",    "<<<",  ">>>",
                                 "#pragma omp x\n", "::",   ",",      "\"s\"", "<",    ">",
                                 "template", "struct", "namespace", "*", "&"};
  for (int trial = 0; trial < 30; ++trial) {
    std::string src;
    const usize len = 1 + rng() % 60;
    for (usize i = 0; i < len; ++i) {
      src += pieces[rng() % (sizeof(pieces) / sizeof(pieces[0]))];
      src += " ";
    }
    tryFrontend(src);
  }
}

TEST_P(FrontendFuzz, RandomFortranSoupNeverCrashes) {
  std::mt19937 rng(GetParam() + 1000);
  static const char *pieces[] = {"program", "end",  "do",   "i",  "=",  "1",    ",",
                                 "n",       "real", "(",    ")",  "::", "a",    ":",
                                 "if",      "then", "call", "+",  "*",  "1.5",  "\n",
                                 "!$omp parallel do\n", "allocate", "subroutine"};
  for (int trial = 0; trial < 30; ++trial) {
    std::string src;
    const usize len = 1 + rng() % 60;
    for (usize i = 0; i < len; ++i) {
      src += pieces[rng() % (sizeof(pieces) / sizeof(pieces[0]))];
      src += " ";
    }
    tryFortran(src);
  }
}

TEST_P(FrontendFuzz, TruncatedCorpusSourcesRejectedCleanly) {
  // Cut a real corpus file at random points: the frontend must throw a
  // typed error or succeed on a still-valid prefix — never crash.
  const auto cb = corpus::make("babelstream", "cuda");
  const auto &full = cb.sources.file(*cb.sources.idOf("main.cpp")).text;
  std::mt19937 rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const usize cut = rng() % full.size();
    tryFrontend(full.substr(0, cut));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontendFuzz, ::testing::Range(0u, 6u));

// -------------------------------------------------------- failure modes ---

TEST(FailureInjection, VmIntegerDivisionByZero) {
  auto tu = minic::parseTranslationUnit(
      minic::lex("int main() { int z = 0; return 5 / z; }", 0), "t.cpp", gSm);
  minic::analyse(tu);
  EXPECT_THROW((void)vm::run(tu), vm::VmError);
}

TEST(FailureInjection, VmUnknownEntryPoint) {
  auto tu = minic::parseTranslationUnit(minic::lex("int helper() { return 1; }", 0), "t.cpp", gSm);
  minic::analyse(tu);
  EXPECT_THROW((void)vm::run(tu), vm::VmError);
}

TEST(FailureInjection, VmKernelLaunchBeyondAllocation) {
  auto tu = minic::parseTranslationUnit(minic::lex(R"(
    __global__ void k(double* a) { a[threadIdx.x] = 1.0; }
    int main() {
      double* d;
      cudaMalloc((void**)&d, sizeof(double) * 2);
      k<<<1, 8>>>(d);
      return 0;
    })", 0),
                                        "t.cpp", gSm);
  minic::analyse(tu);
  EXPECT_THROW((void)vm::run(tu), vm::VmError);
}

TEST(FailureInjection, PreprocessorDepthBombIsBounded) {
  // Macro expansion recursion must terminate (cycle guard).
  lang::SourceManager sm;
  const auto id = sm.add("a.cpp", "#define A B\n#define B A\nint x = A;\n");
  const auto r = minic::preprocess(sm, id);
  EXPECT_FALSE(r.text.empty()); // terminated, left unresolved token in place
}

TEST(FailureInjection, CorruptedDbRejected) {
  auto bytes = db::index(corpus::make("babelstream", "serial")).db.serialise();
  // Flip bytes across the payload; decompression or decoding must throw or
  // produce a clean error — never crash.
  for (const usize at : {usize{10}, bytes.size() / 2, bytes.size() - 2}) {
    auto mutated = bytes;
    mutated[at] ^= 0xFF;
    try {
      (void)db::CodebaseDb::deserialise(mutated);
    } catch (const ParseError &) {
    } catch (const InternalError &) {
    }
  }
  SUCCEED();
}

TEST(FailureInjection, CorruptTreeColumnsAreParseErrors) {
  // A structurally broken parents column in an otherwise well-formed .svdb:
  // second root, self-parent, parented root, a parent numbered after its
  // child (every writer numbers parents first).
  const auto bytes = db::index(corpus::make("babelstream", "serial")).db.serialise();
  const auto decoded = msgpack::decode(svz::decompress(bytes));
  for (const auto &parents : {msgpack::Array{-1, -1, 0}, msgpack::Array{-1, 1, 0},
                              msgpack::Array{1, 0, 0}, msgpack::Array{-1, 2, 0}}) {
    msgpack::Map tree;
    tree.emplace("labels", msgpack::Array{"a", "b", "c"});
    tree.emplace("parents", parents);
    tree.emplace("files", msgpack::Array{0, 0, 0});
    tree.emplace("lines", msgpack::Array{1, 2, 3});
    auto root = decoded.asMap();
    auto units = root.at("units").asArray();
    auto unit = units.at(0).asMap();
    unit.at("tsem") = msgpack::Value(std::move(tree));
    units[0] = msgpack::Value(std::move(unit));
    root.at("units") = msgpack::Value(std::move(units));
    const auto corrupt = svz::compress(msgpack::encode(msgpack::Value(std::move(root))));
    EXPECT_THROW((void)db::CodebaseDb::deserialise(corrupt), ParseError)
        << parents[0].asInt() << "," << parents[1].asInt() << "," << parents[2].asInt();
  }
}

TEST(FailureInjection, ForgedSignaturesCannotPruneAMember) {
  // Older DBs stored per-unit bound signatures under "sigs". A file whose
  // "sigs" are cut short, or claim the wrong node counts, must load with
  // the signatures of its own trees: a forged bound above the exact
  // distance would prune the DB's clean copy from a radius-0 query.
  const auto clean = db::index(corpus::make("babelstream", "serial")).db;
  const auto bytes = clean.serialise();
  const auto sig = [](i64 n) {
    msgpack::Map m;
    m.emplace("n", n);
    m.emplace("labels", msgpack::Array{});
    m.emplace("branches", msgpack::Array{});
    return msgpack::Value(std::move(m));
  };
  const msgpack::Array truncated{sig(1), sig(1)};
  const msgpack::Array wrongN(5, sig(1000000));
  for (const auto &sigs : {truncated, wrongN}) {
    auto root = msgpack::decode(svz::decompress(bytes)).asMap();
    auto units = root.at("units").asArray();
    for (auto &u : units) {
      auto unit = u.asMap();
      unit.insert_or_assign("sigs", msgpack::Value(sigs));
      u = msgpack::Value(std::move(unit));
    }
    root.at("units") = msgpack::Value(std::move(units));
    const auto forged = db::CodebaseDb::deserialise(
        svz::compress(msgpack::encode(msgpack::Value(std::move(root)))));
    ASSERT_EQ(forged.units.size(), clean.units.size());
    for (usize i = 0; i < clean.units.size(); ++i) {
      const auto &f = forged.units[i];
      const auto &c = clean.units[i];
      EXPECT_EQ(f.sigTsrc, c.sigTsrc) << sigs.size();
      EXPECT_EQ(f.sigTsrcPp, c.sigTsrcPp) << sigs.size();
      EXPECT_EQ(f.sigTsem, c.sigTsem) << sigs.size();
      EXPECT_EQ(f.sigTsemI, c.sigTsemI) << sigs.size();
      EXPECT_EQ(f.sigTir, c.sigTir) << sigs.size();
    }
    EXPECT_EQ(metrics::divergenceLowerBound(forged, clean, metrics::Metric::Tsem), 0u);
    const auto members = metrics::rangeDivergence(forged, {&clean}, 0, metrics::Metric::Tsem);
    ASSERT_EQ(members.size(), 1u) << sigs.size();
    EXPECT_EQ(members[0].index, 0u);
    EXPECT_EQ(members[0].distance, 0u);
  }
}

TEST(FailureInjection, DeepNestingIsAFrontendError) {
  // Far past the bound (5000 parentheses deep in C, 20000 in Fortran): a
  // located FrontendError, not a stack overflow.
  const auto c = oneFileCodebase("deep.cpp", nestedC(5000, 0), "c++");
  EXPECT_THROW((void)silvervale::lintCodebase(c), lang::FrontendError);
  const auto f = oneFileCodebase("deep.f90", nestedFortran(20000, 0), "gfortran");
  EXPECT_THROW((void)silvervale::lintCodebase(f), lang::FrontendError);
  // Right-associative chains nest without parentheses.
  std::string assignChain = "int f(int x) {\n  return x";
  for (int i = 0; i < 5000; ++i) assignChain += " = x";
  EXPECT_THROW((void)db::index(oneFileCodebase("chain.cpp", assignChain + ";\n}\n", "c++")),
               lang::FrontendError);
  std::string powerChain = "program p\n  real :: x, y\n  y = x";
  for (int i = 0; i < 20000; ++i) powerChain += "**x";
  EXPECT_THROW(
      (void)db::index(oneFileCodebase("chain.f90", powerChain + "\nend program p\n", "gfortran")),
      lang::FrontendError);
  // Namespaces and template arguments nest through their own recursion.
  std::string namespaces;
  for (int i = 0; i < 100000; ++i) namespaces += "namespace a {\n";
  EXPECT_THROW((void)silvervale::lintCodebase(oneFileCodebase("ns.cpp", namespaces, "c++")),
               lang::FrontendError);
  std::string templates = "int f() {\n  ";
  for (int i = 0; i < 100000; ++i) templates += "vector<";
  templates += "int" + std::string(100000, '>') + " x;\n  return 0;\n}\n";
  EXPECT_THROW((void)silvervale::lintCodebase(oneFileCodebase("tpl.cpp", templates, "c++")),
               lang::FrontendError);
  // Nested object-like macros multiply: ten sixteen-fold levels would be
  // 16^9 tokens. The expansion of the source line stops at a byte cap.
  std::string macros;
  for (int k = 0; k < 9; ++k) {
    macros += "#define A" + std::to_string(k);
    for (int r = 0; r < 16; ++r) macros += " A" + std::to_string(k + 1);
    macros += "\n";
  }
  macros += "#define A9 1\nint f() {\n  return A0;\n}\n";
  try {
    (void)silvervale::lintCodebase(oneFileCodebase("macro.cpp", macros, "c++"));
    ADD_FAILURE() << "macro chain was accepted";
  } catch (const lang::FrontendError &e) {
    EXPECT_EQ(e.where(), "macro.cpp:12");
  }
  // One level past it is already rejected.
  const auto overC = oneFileCodebase("over.cpp", nestedC(kLimitParens, limitMinuses(1)), "c++");
  EXPECT_THROW((void)db::index(overC), lang::FrontendError);
  const auto overF =
      oneFileCodebase("over.f90", nestedFortran(kLimitParens, limitMinuses(1)), "gfortran");
  EXPECT_THROW((void)db::index(overF), lang::FrontendError);
}

TEST(FailureInjection, DeepIncludeChainIsAFrontendError) {
  // h0.h includes h1.h includes h2.h ...: `depth` headers below main.cpp.
  const auto chain = [](usize depth) {
    db::Codebase cb = oneFileCodebase("main.cpp", "#include \"h0.h\"\nint main() { return 0; }\n",
                                      "c++");
    for (usize i = 0; i < depth; ++i) {
      const std::string next =
          i + 1 < depth ? "#include \"h" + std::to_string(i + 1) + ".h\"\n" : "";
      cb.addFile("h" + std::to_string(i) + ".h", next + "int g" + std::to_string(i) + ";\n");
    }
    return cb;
  };
  // 20000 deep overflowed the stack; now the include that opens file 257
  // fails, located at that #include.
  try {
    (void)silvervale::lintCodebase(chain(20000));
    ADD_FAILURE() << "include chain was accepted";
  } catch (const lang::FrontendError &e) {
    EXPECT_EQ(e.where(), "h254.h:1");
  }
  // main.cpp plus 255 headers is exactly kMaxNesting open files: accepted.
  EXPECT_NO_THROW((void)silvervale::lintCodebase(chain(lang::kMaxNesting - 1)));
  EXPECT_THROW((void)silvervale::lintCodebase(chain(lang::kMaxNesting)), lang::FrontendError);
}

TEST(FailureInjection, SiblingIncludeBombIsAFrontendError) {
  // One unguarded 64 KiB header included side by side: no line passes the
  // per-line expansion cap and no include nests, yet each copy adds 64 KiB
  // to the unit. 256 copies fill the 16 MiB total-output cap exactly; the
  // first line of the 257th fails, located in the header.
  std::string header;
  for (int i = 0; i < 1024; ++i) header += std::string(63, 'x') + "\n";
  const auto preprocessedBytes = [&header](int copies) {
    lang::SourceManager sm;
    sm.add("bomb.h", header);
    std::string main;
    for (int i = 0; i < copies; ++i) main += "#include \"bomb.h\"\n";
    return minic::preprocess(sm, sm.add("main.cpp", main)).text.size();
  };
  EXPECT_EQ(preprocessedBytes(256), usize{16} << 20);
  try {
    (void)preprocessedBytes(257);
    ADD_FAILURE() << "257 sibling includes were accepted";
  } catch (const lang::FrontendError &e) {
    EXPECT_EQ(e.where(), "bomb.h:1");
    EXPECT_NE(std::string(e.what()).find("preprocessed output exceeds 16777216 bytes"),
              std::string::npos)
        << e.what();
  }
}

TEST(FailureInjection, NestingAtTheLimitRunsEveryTier) {
  // Exactly at the bound the input is accepted, and every later pass —
  // indexing (trees, signatures) and all four lint tiers — survives it.
  silvervale::LintOptions all;
  all.ir = true;
  all.deps = true;
  all.range = true;
  for (const auto &cb :
       {oneFileCodebase("limit.cpp", nestedC(kLimitParens, limitMinuses(0)), "c++"),
        oneFileCodebase("limit.f90", nestedFortran(kLimitParens, limitMinuses(0)), "gfortran")}) {
    const auto indexed = db::index(cb).db;
    ASSERT_EQ(indexed.units.size(), 1u) << cb.commands[0].file;
    EXPECT_GT(indexed.units[0].tsem.size(), limitMinuses(0)) << cb.commands[0].file;
    const auto report = silvervale::lintCodebase(cb, all);
    EXPECT_EQ(report.units.size(), 1u) << cb.commands[0].file;
  }
}

TEST(FailureInjection, GiantTedPairFailsBeforeAllocating) {
  // Two ~200k-node chains ask for a 4e10-cell DP (~360 GB at u32 cells).
  // Every TED path refuses the pair with a diagnostic before allocating any
  // of it: the process's peak RSS grows by less than the ceiling.
  const auto chain = [](usize n, const std::string &label) {
    auto t = tree::Tree::leaf(label);
    for (tree::NodeId id = 0; id + 1 < n; ++id) t.addChild(id, label);
    return t;
  };
  const auto a = chain(200000, "a");
  const auto b = chain(200001, "b");
  const auto peakRssKb = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
  };
  const long before = peakRssKb();
  tree::TedEngine engine;
  const auto expectRefused = [&](const std::function<u64()> &dp, const char *path) {
    try {
      (void)dp();
      ADD_FAILURE() << path << " accepted the pair";
    } catch (const std::runtime_error &e) {
      const std::string what = e.what();
      // The engine runs the pair in its memo's canonical order.
      EXPECT_TRUE(what.find("200000 x 200001") != std::string::npos ||
                  what.find("200001 x 200000") != std::string::npos)
          << path << ": " << what;
      EXPECT_NE(what.find(std::to_string(tree::kMaxPairDpBytes)), std::string::npos)
          << path << ": " << what;
    }
  };
  expectRefused([&] { return tree::ted(a, b, {tree::TedAlgo::Apted, {}}); }, "uncached Apted");
  expectRefused([&] { return tree::ted(a, b, {tree::TedAlgo::ZhangShasha, {}}); },
                "Zhang-Shasha");
  expectRefused([&] { return engine.ted(a, b); }, "engine");
  // Indexing the chains takes memory (more under sanitizers); the DP's
  // tables would take hundreds of times the ceiling.
  EXPECT_LT(static_cast<u64>(peakRssKb() - before), tree::kMaxPairDpBytes / 1024) << "KiB";
}

// ----------------------------------------------------------- determinism ---

TEST(Determinism, IndexingIsBitReproducible) {
  const auto a = db::index(corpus::make("tealeaf", "sycl-acc")).db.serialise();
  const auto b = db::index(corpus::make("tealeaf", "sycl-acc")).db.serialise();
  EXPECT_EQ(a, b);
}

TEST(Determinism, CoverageRunsAreReproducible) {
  db::IndexOptions opts;
  opts.runCoverage = true;
  const auto a = db::index(corpus::make("babelstream", "kokkos"), opts);
  const auto b = db::index(corpus::make("babelstream", "kokkos"), opts);
  EXPECT_EQ(a.db.coverage.lineHits, b.db.coverage.lineHits);
  EXPECT_EQ(a.coverageRun->output, b.coverageRun->output);
  EXPECT_EQ(a.coverageRun->steps, b.coverageRun->steps);
}

TEST(Determinism, TedIndependentOfComparisonOrder) {
  const auto a = db::index(corpus::make("babelstream", "serial")).db;
  const auto b = db::index(corpus::make("babelstream", "sycl-usm")).db;
  const auto d1 = tree::ted(a.units[0].tsem, b.units[0].tsem);
  const auto d2 = tree::ted(b.units[0].tsem, a.units[0].tsem);
  EXPECT_EQ(d1, d2);
}

// --------------------------------------------------- structural property ---

TEST(TreeProperties, PruneKeepsInvariantsOnRandomTrees) {
  std::mt19937 rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    auto t = tree::Tree::leaf("r");
    const usize n = 2 + rng() % 80;
    for (usize i = 1; i < n; ++i)
      t.addChild(static_cast<tree::NodeId>(rng() % t.size()),
                 std::string(1, static_cast<char>('a' + rng() % 4)));
    const char drop = static_cast<char>('a' + rng() % 4);
    const auto pruned = t.pruneWhere([&](const tree::Node &x) { return x.label[0] != drop; });
    pruned.validate();
    EXPECT_LE(pruned.size(), t.size());
    for (const auto &node : pruned.nodes()) {
      if (node.label != "<masked>") {
        EXPECT_NE(node.label[0], drop);
      }
    }
  }
}
