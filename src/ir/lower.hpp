// AST -> IR lowering (the "backend" of Fig 3). Control flow becomes basic
// blocks, expressions become typed three-address instructions, lambdas and
// directive bodies are outlined into separate functions, and — the part
// that matters for the paper's T_ir findings — each offloading model's
// compilation emits its per-file driver boilerplate:
//
//   CUDA  : device kernels + host stubs (__cudaPushCallConfiguration
//           pattern) + fatbin globals + a module ctor registering every
//           kernel (mirroring clang --cuda-host-only output).
//   HIP   : same shape with HIP runtime entry points and one extra
//           managed-runtime global.
//   OMP offload: outlined target regions, @.omp_offloading.entry globals
//           and __tgt_target_kernel call sequences.
//   OMP host : outlined parallel regions + __kmpc_fork_call.
//   SYCL  : lambda kernels outlined with integration-header registration.
//   Kokkos/TBB/StdPar : outlined functor bodies + runtime dispatch calls.
//
// The model is declared by the compile command (e.g. "-x cuda", "-fopenmp",
// "-fsycl"), exactly as a Compilation DB would record it.
#pragma once

#include "ir/ir.hpp"
#include "lang/ast.hpp"

namespace sv::ir {

enum class Model {
  Serial,
  OpenMP,
  OpenMPTarget,
  Cuda,
  Hip,
  Sycl,
  Kokkos,
  Tbb,
  StdPar,
  OpenAcc,
};

[[nodiscard]] std::string_view modelName(Model m);

struct LowerOptions {
  Model model = Model::Serial;
};

/// Lower a translation unit. Never fails on unresolved externals (they
/// become plain calls); throws InternalError on malformed AST.
[[nodiscard]] Module lower(const lang::ast::TranslationUnit &unit, const LowerOptions &options = {});

} // namespace sv::ir
