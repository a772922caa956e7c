#include <gtest/gtest.h>

#include "ir/cost.hpp"
#include "ir/irtree.hpp"
#include "ir/lower.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "support/strings.hpp"
#include "tree/ted.hpp"

using namespace sv;
using namespace sv::ir;

namespace {
lang::SourceManager gSm;

Module lowerSrc(const std::string &src, Model model = Model::Serial) {
  auto tu = minic::parseTranslationUnit(minic::lex(src, 0), "t.cpp", gSm);
  minic::analyse(tu);
  LowerOptions opts;
  opts.model = model;
  return lower(tu, opts);
}

const Function *find(const Module &m, const std::string &name) {
  for (const auto &f : m.functions)
    if (f.name == name) return &f;
  return nullptr;
}

usize countOps(const Module &m, const std::string &op) {
  usize n = 0;
  for (const auto &f : m.functions)
    for (const auto &b : f.blocks)
      for (const auto &in : b.instrs)
        if (in.op == op) ++n;
  return n;
}
} // namespace

TEST(Lower, SimpleFunctionShape) {
  const auto m = lowerSrc("double scale(double x) { return x * 2.0; }");
  ASSERT_EQ(m.functions.size(), 1u);
  const auto &f = m.functions[0];
  EXPECT_EQ(f.name, "@scale");
  EXPECT_EQ(f.returnType, "double");
  EXPECT_EQ(f.argCount, 1u);
  EXPECT_GE(countOps(m, "fmul"), 1u);
  EXPECT_GE(countOps(m, "ret"), 1u);
}

TEST(Lower, IntVersusFloatArithmetic) {
  const auto m = lowerSrc("int f(int a, int b) { return a + b * 2; }\n"
                          "double g(double a, double b) { return a + b * 2.0; }");
  EXPECT_GE(countOps(m, "add"), 1u);
  EXPECT_GE(countOps(m, "mul"), 1u);
  EXPECT_GE(countOps(m, "fadd"), 1u);
  EXPECT_GE(countOps(m, "fmul"), 1u);
}

TEST(Lower, ForLoopMakesBlocks) {
  const auto m = lowerSrc("void f(double* a, int n) { for (int i = 0; i < n; i++) a[i] = 0.0; }");
  const auto &f = m.functions[0];
  std::vector<std::string> names;
  for (const auto &b : f.blocks) names.push_back(b.name);
  EXPECT_GE(names.size(), 4u); // entry, for.cond, for.body, for.inc, for.end
  EXPECT_GE(countOps(m, "condbr"), 1u);
  EXPECT_GE(countOps(m, "getelementptr"), 1u);
  EXPECT_GE(countOps(m, "store"), 2u); // i init + a[i]
}

TEST(Lower, IfElseBlocks) {
  const auto m = lowerSrc("int f(int x) { if (x > 0) { return 1; } else { return 2; } }");
  EXPECT_GE(countOps(m, "icmp"), 1u);
  EXPECT_GE(countOps(m, "condbr"), 1u);
  EXPECT_GE(countOps(m, "ret"), 2u);
}

TEST(Lower, ImplicitCastBecomesConversion) {
  const auto m = lowerSrc("double f(int i) { double d = i; return d; }");
  EXPECT_GE(countOps(m, "sitofp"), 1u);
}

TEST(Lower, CompoundAssignLoadModifyStore) {
  const auto m = lowerSrc("void f(double* a, double v, int i) { a[i] += v; }");
  EXPECT_GE(countOps(m, "load"), 3u); // v, i, a[i]
  EXPECT_GE(countOps(m, "fadd"), 1u);
  EXPECT_GE(countOps(m, "store"), 1u);
}

TEST(Lower, OmpParallelForOutlines) {
  const auto m = lowerSrc(R"(
    void f(double* a, int n) {
      #pragma omp parallel for
      for (int i = 0; i < n; i++) a[i] = 1.0;
    })", Model::OpenMP);
  bool sawOutlined = false;
  for (const auto &f : m.functions)
    if (f.role == FunctionRole::Outlined) sawOutlined = true;
  EXPECT_TRUE(sawOutlined);
  // The fork call references the outlined function.
  bool sawFork = false;
  for (const auto &f : m.functions)
    for (const auto &b : f.blocks)
      for (const auto &in : b.instrs)
        if (in.op == "call" && !in.operands.empty() &&
            in.operands[0] == "@__kmpc_fork_call")
          sawFork = true;
  EXPECT_TRUE(sawFork);
}

TEST(Lower, OmpReductionEmitsRuntimeSequence) {
  const auto m = lowerSrc(R"(
    double f(double* a, int n) {
      double s = 0.0;
      #pragma omp parallel for reduction(+:s)
      for (int i = 0; i < n; i++) s += a[i];
      return s;
    })", Model::OpenMP);
  bool sawReduce = false;
  for (const auto &f : m.functions)
    for (const auto &b : f.blocks)
      for (const auto &in : b.instrs)
        if (in.op == "call" && !in.operands.empty() && in.operands[0] == "@__kmpc_reduce")
          sawReduce = true;
  EXPECT_TRUE(sawReduce);
}

TEST(Lower, OmpTargetEmitsOffloadEntries) {
  const auto m = lowerSrc(R"(
    void f(double* a, int n) {
      #pragma omp target teams distribute parallel for map(tofrom: a)
      for (int i = 0; i < n; i++) a[i] = 1.0;
    })", Model::OpenMPTarget);
  bool sawEntryGlobal = false;
  for (const auto &g : m.globals)
    if (g.runtime && g.name.find(".omp_offloading.entry") != std::string::npos)
      sawEntryGlobal = true;
  EXPECT_TRUE(sawEntryGlobal);
  bool sawRequiresReg = false;
  for (const auto &f : m.functions)
    if (f.role == FunctionRole::Runtime) sawRequiresReg = true;
  EXPECT_TRUE(sawRequiresReg);
}

TEST(Lower, CudaKernelEmitsStubAndRegistration) {
  const auto m = lowerSrc(
      "__global__ void k(double* a) { a[0] = 1.0; }\n"
      "void run(double* a) { k<<<64, 256>>>(a); }",
      Model::Cuda);
  EXPECT_NE(find(m, "@__device__k"), nullptr);
  const auto *stub = find(m, "@k");
  ASSERT_NE(stub, nullptr);
  EXPECT_EQ(stub->role, FunctionRole::DeviceStub);
  EXPECT_NE(find(m, "@__cuda_module_ctor"), nullptr);
  EXPECT_NE(find(m, "@__cuda_module_dtor"), nullptr);
  bool fatbin = false;
  for (const auto &g : m.globals)
    if (g.name == "__cuda_fatbin_wrapper") fatbin = true;
  EXPECT_TRUE(fatbin);
}

TEST(Lower, HipMirrorsCudaWithManagedGlobal) {
  const auto m = lowerSrc("__global__ void k(double* a) { a[0] = 1.0; }", Model::Hip);
  EXPECT_NE(find(m, "@__hip_module_ctor"), nullptr);
  bool managed = false;
  for (const auto &g : m.globals)
    if (g.name == "__hip_module_managed") managed = true;
  EXPECT_TRUE(managed);
}

TEST(Lower, BoilerplateAlwaysEmitted) {
  // The offload boilerplate is part of every lowering: the CUDA module of a
  // kernel carries functions and globals the serial lowering of the same
  // source lacks.
  const std::string src = "__global__ void k(double* a) { a[0] = 1.0; }";
  const auto cuda = lowerSrc(src, Model::Cuda);
  const auto serial = lowerSrc(src, Model::Serial);
  EXPECT_GT(cuda.functions.size(), serial.functions.size());
  EXPECT_GT(cuda.globals.size(), serial.globals.size());
}

TEST(Lower, SyclLambdaOutlinedAndRegistered) {
  const auto m = lowerSrc(R"(
    void f(queue q, double* a, int n) {
      q.submit([&](handler h) {
        h.parallel_for(n, [=](int i) { a[i] = 0.0; });
      });
    })", Model::Sycl);
  bool sawKernelFn = false;
  for (const auto &f : m.functions)
    if (f.name.find("sycl_kernel") != std::string::npos) sawKernelFn = true;
  EXPECT_TRUE(sawKernelFn);
  EXPECT_NE(find(m, "@__sycl_register_kernels"), nullptr);
}

TEST(Lower, KokkosLambdaOutlinedNoModuleBoilerplate) {
  const auto m = lowerSrc(
      "void f(double* a, int n) { Kokkos::parallel_for(n, [=](int i) { a[i] = 0.0; }); }",
      Model::Kokkos);
  bool functor = false;
  for (const auto &f : m.functions)
    if (f.name.find("kokkos_functor") != std::string::npos) functor = true;
  EXPECT_TRUE(functor);
  for (const auto &f : m.functions) EXPECT_NE(f.role, FunctionRole::Runtime);
}

TEST(Lower, SerialHasNoRuntimeArtifacts) {
  const auto m = lowerSrc("void f(double* a, int n) { for (int i = 0; i < n; i++) a[i] = 2.0; }");
  for (const auto &f : m.functions) EXPECT_EQ(f.role, FunctionRole::User);
  for (const auto &g : m.globals) EXPECT_FALSE(g.runtime);
}

TEST(Lower, PrintRendersModule) {
  const auto m = lowerSrc("int f() { return 7; }");
  const auto text = print(m);
  EXPECT_NE(text.find("define i32 @f"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
}

// ------------------------------------------------------------- irtree ---

TEST(IrTree, StructureRetained) {
  const auto m = lowerSrc("double f(double a, double b) { return a + b; }");
  const auto t = buildIrTree(m);
  usize fns = 0, blocks = 0;
  for (const auto &n : t.nodes()) {
    if (n.label.find("Function:") == 0) ++fns;
    if (n.label.find("BasicBlock:") == 0) ++blocks;
  }
  EXPECT_EQ(fns, 1u);
  EXPECT_GE(blocks, 1u);
}

TEST(IrTree, RegisterNumbersDoNotDiverge) {
  // Same computation with an extra leading statement in one version shifts
  // all register numbers; distance must reflect only the real insertion.
  const auto m1 = lowerSrc("double f(double a) { return a * a; }");
  const auto m2 = lowerSrc("double f(double a) { double t = 1.0; return a * a; }");
  const auto d = tree::ted(buildIrTree(m1), buildIrTree(m2));
  EXPECT_GT(d, 0u);
  EXPECT_LE(d, 10u); // alloca+store+const leaves, not a whole-tree relabel
}

TEST(IrTree, OffloadBoilerplateInflatesTree) {
  // T_ir keeps the host stub and the runtime functions, so the CUDA tree of
  // a kernel outgrows the serial tree of the same source.
  const std::string src = "__global__ void k(double* a) { a[0] = 1.0; }";
  const auto t = buildIrTree(lowerSrc(src, Model::Cuda));
  usize stubs = 0, runtime = 0;
  for (const auto &n : t.nodes()) {
    if (str::startsWith(n.label, "Function:") && str::endsWith(n.label, ":stub")) ++stubs;
    if (str::startsWith(n.label, "Function:") && str::endsWith(n.label, ":runtime")) ++runtime;
  }
  EXPECT_EQ(stubs, 1u);
  EXPECT_GE(runtime, 1u);
  EXPECT_GT(t.size(), buildIrTree(lowerSrc(src, Model::Serial)).size());
}

TEST(IrTree, RuntimeEntryPointsKept) {
  const auto m = lowerSrc(R"(
    void f(double* a, int n) {
      #pragma omp parallel for
      for (int i = 0; i < n; i++) a[i] = 1.0;
    })", Model::OpenMP);
  const auto t = buildIrTree(m);
  bool sawKmpc = false;
  for (const auto &n : t.nodes())
    if (n.label == "@__kmpc_fork_call") sawKmpc = true;
  EXPECT_TRUE(sawKmpc);
}

// --------------------------------------------------------------- cost ---

TEST(Cost, TriadMixMatchesHandCount) {
  // a[i] = b[i] + scalar * c[i]: loads b,c (+ scalar and i from slots),
  // stores a[i]; 2 flops (mul + add).
  const auto m = lowerSrc(
      "void triad(double* a, double* b, double* c, double s, int n) {\n"
      "  for (int i = 0; i < n; i++) a[i] = b[i] + s * c[i];\n"
      "}");
  const auto mix = moduleMix(m);
  EXPECT_EQ(mix.flops, 2u);
  // mem2reg modelling: scalar slots (i, s, n) are register traffic; only
  // the b[i] and c[i] element loads and the a[i] store remain.
  EXPECT_EQ(mix.loads, 2u);
  EXPECT_EQ(mix.stores, 1u);
  EXPECT_EQ(mix.bytes(), 24u);
}

TEST(Cost, TypeBytes) {
  EXPECT_EQ(typeBytes("double"), 8u);
  EXPECT_EQ(typeBytes("float"), 4u);
  EXPECT_EQ(typeBytes("i32"), 4u);
  EXPECT_EQ(typeBytes("i1"), 1u);
  EXPECT_EQ(typeBytes("ptr"), 8u);
}

TEST(Cost, RuntimeFunctionsExcludedFromModuleMix) {
  const auto m = lowerSrc("__global__ void k(double* a) { a[0] = 1.0; }", Model::Cuda);
  InstrMix perFn;
  for (const auto &f : m.functions)
    if (f.role != FunctionRole::Runtime) perFn += functionMix(f);
  const auto mix = moduleMix(m);
  EXPECT_EQ(mix.bytes(), perFn.bytes());
}

TEST(Cost, ArithmeticIntensity) {
  InstrMix mix;
  mix.flops = 16;
  mix.loadBytes = 32;
  mix.storeBytes = 32;
  EXPECT_DOUBLE_EQ(arithmeticIntensity(mix), 0.25);
  EXPECT_DOUBLE_EQ(arithmeticIntensity(InstrMix{}), 0.0);
}
