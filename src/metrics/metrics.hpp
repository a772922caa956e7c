// The codebase summarisation metrics of Table I, computed over Codebase
// DBs: the absolute perceived measures (SLOC, LLOC — Eqs. 2 and 3), the
// relative textual measure (Source — Eq. 4, via the O(NP) diff distance),
// and the tree-based relative measures (T_src, T_sem, T_sem+i, T_ir —
// Eqs. 5 and 6) that together form TBMD. Variants: +preprocessor and
// +coverage (Section III / Table I).
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "db/codebase.hpp"
#include "tree/ted.hpp"

namespace sv::metrics {

enum class Metric { SLOC, LLOC, Source, Tsrc, Tsem, TsemInline, Tir };

[[nodiscard]] std::string_view metricName(Metric m);
[[nodiscard]] bool isTreeMetric(Metric m);
[[nodiscard]] bool isAbsolute(Metric m);

struct Variant {
  bool preprocessed = false; ///< +pp: measure after the preprocessor
  bool coverage = false;     ///< +coverage: mask unexecuted lines first
};

/// Absolute measure (SLOC/LLOC) of a whole codebase: the sum over units
/// (Eqs. 2, 3). Throws InternalError for relative metrics.
[[nodiscard]] usize absolute(const db::CodebaseDb &c, Metric metric, Variant variant = {});

/// A relative divergence d(C1, C2) (Eq. 6) plus its normalisers.
struct Divergence {
  u64 distance = 0;  ///< summed TED / diff distance over matched unit pairs
  u64 dmaxEq7 = 0;   ///< Eq. 7 as printed in the paper: sum |T(F_C2)|
  u64 dmaxSym = 0;   ///< symmetric bound sum (|T(F_C1)| + |T(F_C2)|): always >= distance
  usize matchedUnits = 0;
  usize unmatchedUnits = 0; ///< units without a partner (counted into distance)

  /// Normalised to [0, 1] using the symmetric bound. (Eq. 7's bound can be
  /// exceeded when |T1| > |T2|; see EXPERIMENTS.md for the discussion.)
  [[nodiscard]] double normalised() const {
    return dmaxSym == 0 ? 0.0 : static_cast<double>(distance) / static_cast<double>(dmaxSym);
  }
};

/// The `match` function of Eq. 4/6: pairs units by their `role` (file
/// stem), which the corpus keeps stable across model ports. Unmatched units
/// contribute their full size to the distance (they must be entirely
/// added/removed).
struct MatchOptions {
  /// Override unit pairing: returns the role a unit should be matched
  /// under. Defaults to UnitEntry::role.
  std::function<std::string(const db::UnitEntry &)> roleOf;
};

/// One Eq. 4/6 pairing produced by matchUnits: a unit of C1 and its role
/// partner in C2; either side is null for an unmatched role.
struct UnitPair {
  const db::UnitEntry *u1 = nullptr;
  const db::UnitEntry *u2 = nullptr;
};

/// The `match` function materialised: every C1 unit (in codebase order)
/// paired with the first C2 unit of the same role or null, followed by the
/// C2 units whose role never appeared in C1. diverge() and the query layer
/// (metrics/query.hpp) walk the same list, so filter-and-refine results
/// refine to exactly what diverge() computes.
[[nodiscard]] std::vector<UnitPair> matchUnits(const db::CodebaseDb &c1,
                                               const db::CodebaseDb &c2,
                                               const MatchOptions &match = {});

/// The tree a tree metric measures for one unit (variant-aware; ignores
/// +coverage, which masks per call). Throws for non-tree metrics.
[[nodiscard]] const tree::Tree &metricTree(const db::UnitEntry &u, Metric metric,
                                           Variant variant = {});

/// The lower-bound signature of `metricTree(u, metric, variant)`.
[[nodiscard]] const tree::BoundSignature &metricSignature(const db::UnitEntry &u, Metric metric,
                                                          Variant variant = {});

/// Relative divergence between two codebases under `metric` (Eq. 6).
/// Throws InternalError for absolute metrics.
[[nodiscard]] Divergence diverge(const db::CodebaseDb &c1, const db::CodebaseDb &c2,
                                 Metric metric, Variant variant = {},
                                 const tree::TedOptions &ted = {},
                                 const MatchOptions &match = {});

/// Apply a codebase's coverage mask to one of its trees: nodes whose source
/// line was never executed are pruned with their subtrees (Section IV-D).
/// Nodes without a source back-reference (synthetic) are kept.
[[nodiscard]] tree::Tree applyCoverage(const tree::Tree &t, const vm::Coverage &coverage);

/// Convenience: every metric's normalised divergence from `base` for one
/// codebase, as plotted in the Fig 7/8 heatmaps.
struct DivergenceRow {
  std::string model;
  double source = 0, tsrc = 0, tsem = 0, tsemI = 0, tir = 0;
};
[[nodiscard]] DivergenceRow divergenceRow(const db::CodebaseDb &base, const db::CodebaseDb &other,
                                          Variant variant = {});

} // namespace sv::metrics
