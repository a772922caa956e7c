// The Codebase DB (Fig 2): SilverVale ingests a codebase (an in-memory file
// set + its Compilation DB), runs the full frontend/backend pipeline per
// translation unit, and produces a portable, serialisable set of
// semantic-bearing trees and text-metric inputs. Optionally the program is
// executed in the VM first so runtime coverage can be stored alongside
// (Section IV-D).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "db/compiledb.hpp"
#include "ir/lower.hpp"
#include "lang/ast.hpp"
#include "lang/source.hpp"
#include "minic/preprocessor.hpp"
#include "tree/tedbounds.hpp"
#include "tree/tree.hpp"
#include "vm/vm.hpp"

namespace sv::db {

/// A codebase under analysis: one miniapp in one programming model.
struct Codebase {
  std::string app;    ///< e.g. "tealeaf"
  std::string model;  ///< display name, e.g. "cuda", "sycl-acc"
  lang::SourceManager sources;
  std::vector<CompileCommand> commands;

  /// Register a file and return its id.
  i32 addFile(std::string name, std::string text) {
    return sources.add(std::move(name), std::move(text));
  }
};

/// Everything extracted from one translation unit (= one unit_C(x), Eq. 1:
/// the source file plus its non-system dependencies).
struct UnitEntry {
  std::string file;     ///< TU main file
  std::string role;     ///< match() key: the file stem, stable across models
  bool fortran = false;
  /// Non-system files this unit depends on (its own headers) — the
  /// dependency information unit_C(x) = dep(x) ∪ x carries (Eq. 1), used by
  /// the module-coupling secondary metric (Section III-A).
  std::vector<std::string> deps;

  // Perceived-metric inputs (system files excluded).
  std::string normText;   ///< normalised raw text of the unit's own files
  std::string normTextPp; ///< normalised preprocessed text (+pp variant)
  usize sloc = 0, lloc = 0, slocPp = 0, llocPp = 0;

  // Semantic-bearing trees.
  tree::Tree tsrc;    ///< token view of the unit's own files
  tree::Tree tsrcPp;  ///< token view after preprocessing
  tree::Tree tsem;    ///< frontend semantic tree
  tree::Tree tsemI;   ///< T_sem with same-codebase calls inlined
  tree::Tree tir;     ///< backend IR tree

  // TED lower-bound signatures of the five trees (tree/tedbounds.hpp): the
  // metric-space query layer (metrics/query.hpp) filters candidate pairs
  // on these before any DP. Derived from the trees by the indexer and by
  // deserialise(), never stored in the DB.
  tree::BoundSignature sigTsrc, sigTsrcPp, sigTsem, sigTsemI, sigTir;

  /// Derive the five signatures from the trees.
  void computeSignatures();
};

struct CodebaseDb {
  std::string app;
  std::string model;
  ir::Model modelKind = ir::Model::Serial;
  bool fortran = false;
  std::vector<std::string> fileNames; ///< id -> name (coverage back-references)
  std::vector<UnitEntry> units;
  bool hasCoverage = false;
  vm::Coverage coverage;

  [[nodiscard]] std::vector<u8> serialise() const;       ///< MessagePack + svz
  static CodebaseDb deserialise(const std::vector<u8> &bytes);
};

struct IndexOptions {
  /// Execute the program in the VM and record line coverage. The entry
  /// point is "main" (or the Fortran program unit); all TUs are linked.
  bool runCoverage = false;
  /// Worker count for the `db-index` for-each over units (0 =
  /// configureThreads / SV_THREADS / hardware default). The DB bytes do
  /// not depend on it.
  usize threads = 0;
};

struct IndexResult {
  CodebaseDb db;
  std::optional<vm::RunResult> coverageRun; ///< present when runCoverage
};

/// Run the full indexing pipeline over every compile command.
/// Throws FrontendError / VmError on malformed corpus input.
[[nodiscard]] IndexResult index(const Codebase &codebase, const IndexOptions &options = {});

/// Index several codebases through ONE for-each node: the units of every
/// codebase are flattened into a single item stream, so a slow unit of one
/// port never stalls the others (indexApp/indexAllPorts route their
/// whole port set through here). Results are per-codebase, in input order,
/// byte-identical to indexing each codebase alone.
[[nodiscard]] std::vector<IndexResult> indexBatch(const std::vector<const Codebase *> &codebases,
                                                  const IndexOptions &options = {});

/// Link all TUs of a codebase into one unit for execution (the VM's view of
/// the final binary).
[[nodiscard]] lang::ast::TranslationUnit linkForExecution(const Codebase &codebase);

/// One translation unit through the frontend only (preprocess, parse,
/// sema) — no trees, no IR. The one frontend path: indexing, linking for
/// execution and the linter all start here.
struct ParsedUnit {
  std::string file;
  bool fortran = false;
  ir::Model model = ir::Model::Serial; ///< from the unit's compile flags
  minic::PreprocessResult pp;          ///< C++ units only; empty for Fortran
  lang::ast::TranslationUnit tu;
};

/// One compile command through the frontend (the per-unit step behind
/// parseUnits, exposed so per-unit for-each tasks can run units
/// independently).
[[nodiscard]] ParsedUnit parseUnit(const Codebase &codebase, const CompileCommand &cmd);

/// Run the frontend over every compile command of `codebase`.
[[nodiscard]] std::vector<ParsedUnit> parseUnits(const Codebase &codebase);

/// One translation unit through frontend + backend lowering — the input of
/// the IR-tier consumers (ir::verify gate, lint::runIr, the deps and range
/// benches).
struct LoweredUnit {
  std::string file;
  ir::Model model = ir::Model::Serial;
  ir::Module module;
};

/// Lower one parsed unit (the per-unit step behind lowerUnits).
[[nodiscard]] LoweredUnit lowerParsed(ParsedUnit parsed);

/// Parse and lower every compile command of `codebase`.
[[nodiscard]] std::vector<LoweredUnit> lowerUnits(const Codebase &codebase);

} // namespace sv::db
