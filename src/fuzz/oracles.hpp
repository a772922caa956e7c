// Differential and metamorphic oracles over the full pipeline. Every
// generated program is well-formed by construction (see generator.hpp), so
// *any* complaint from a frontend, the VM, the lowering, or a cross-layer
// mismatch is a pipeline bug:
//
//   round-trip  print(parse(src)) reparses, prints back byte-identically,
//               and both parses yield the same T_sem fingerprint
//   vm          VM output/steps/coverage equal before and after T_sem+i
//               inlining (the inliner is tree-level metadata; execution
//               must not change)
//   ir          lowered module passes ir::verify; ir::print round-trips
//               byte-identically; CFG shape, tracked slots, reaching-defs
//               and liveness facts are identical on the reparse
//   ted         d(T,T)=0 (engine on and off), engine-on == engine-off
//               values, symmetry, and triangle inequality against a rolling
//               pool of recent trees
//   lint        lint::run and lint::runIr are deterministic across fresh
//               parses, and comment/whitespace mutation preserves both the
//               diagnostic set (modulo locations) and the T_sem fingerprint
//   lb          every signature lower bound (size, histogram, binary
//               branch, and their max) underestimates the exact TED, and
//               cutoff mode returns min(exact, cutoff) for both
//               algorithms, engine on and off — including agreement with
//               the exact distance whenever exact < cutoff
//   deps        lint::runDeps is deterministic across fresh parses, its
//               verdicts are invariant under comment/whitespace mutation
//               (modulo locations) and under statement-order-preserving
//               identifier renames (modulo symbol names), and no loop ever
//               carries both a provably-parallel note and a fired
//               loop-carried race
//   range       lint::runRange is deterministic across fresh parses and
//               invariant under comment/whitespace mutation (modulo
//               locations); every integer value the VM observes being
//               stored at a source line lies inside the static interval the
//               value-range analysis computed for the stores at that line
//               (soundness); with --inject-range the seeded out-of-bounds
//               and division-by-zero defects must both be reported
//   pipeline    indexing and all-tier linting of the program at seeded
//               2–4 workers yield a byte-identical serialised DB and lint
//               report to the 1-worker reference — completion order must
//               never leak into an output
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "tree/tree.hpp"

namespace sv::fuzz {

enum class Oracle : u8 {
  RoundTrip = 0,
  Vm = 1,
  Ir = 2,
  Ted = 3,
  Lint = 4,
  Lb = 5,
  Deps = 6,
  Range = 7,
  Pipeline = 8,
};

[[nodiscard]] const char *oracleName(Oracle o);
[[nodiscard]] std::optional<Oracle> oracleFromName(std::string_view name);

[[nodiscard]] constexpr u32 oracleBit(Oracle o) { return 1u << static_cast<u32>(o); }
constexpr u32 kAllOracles = 0b111111111;

struct OracleFailure {
  Oracle oracle{};
  std::string message;
};

/// Cross-program state: rolling pools of recent T_sem trees the TED and
/// lower-bound metamorphic checks test new trees against. The pools are
/// separate so each oracle's behaviour is independent of which others are
/// enabled in the mask.
struct OracleContext {
  std::vector<tree::Tree> tedPool;
  std::vector<tree::Tree> lbPool;
  static constexpr usize kPoolCap = 8;
};

/// The T_sem tree of one generated program (parse + sema + tree build) —
/// how `svale cluster fuzz` turns generator output into a query corpus.
[[nodiscard]] tree::Tree semTree(const GeneratedProgram &program);

/// Run the enabled oracles over one generated program. Empty result = pass.
[[nodiscard]] std::vector<OracleFailure> runOracles(const GeneratedProgram &program, u32 mask,
                                                    OracleContext *context = nullptr);

/// True when `source` makes it through the frontend. The reducer's failure
/// predicate needs this: a shrink candidate that no longer parses does not
/// reproduce the failure, it destroys the program.
[[nodiscard]] bool parses(const std::string &source, Lang lang);

/// Stronger gate for shrink candidates. nullopt when the candidate does not
/// parse or (MiniF) lost its program unit; otherwise the sorted, deduped
/// set of names the frontend could not resolve (always empty for MiniF,
/// which has no resolution). The reducer rejects candidates whose set is
/// not a subset of the original program's — deleting a declaration line
/// manufactures a *new* undeclared-variable failure with the same oracle
/// verdict, and the reduction would slide away from the bug it is meant to
/// isolate.
[[nodiscard]] std::optional<std::vector<std::string>> reductionGate(const std::string &source,
                                                                    Lang lang);

/// Corpus-mutant round: mutate every file of the app/model port with
/// comments/whitespace and check lint verdicts (modulo locations) and T_sem
/// fingerprints are invariant. Only the mutation oracles run here — the
/// printer only guarantees the generator grammar, not the corpus language.
[[nodiscard]] std::vector<OracleFailure> runCorpusMutationOracle(const std::string &app,
                                                                const std::string &model,
                                                                u64 seed);

} // namespace sv::fuzz
