// Test seam of the Apted single-path kernel (tree/tedapted.cpp). Not an
// API: nothing outside the tree tests includes it, and it changes no
// distance. The kernel is built twice from one source, an AVX2 clone and
// the baseline-ISA default, and the CPU picks one at load time; on an AVX2
// host the baseline code would otherwise never run under test.
#pragma once

#include <vector>

#include "tree/ted.hpp"

namespace sv::tree::apted::seam {

enum class Isa : u8 {
  Native,   ///< the load-time pick (the AVX2 clone where the CPU has AVX2)
  Baseline, ///< the kernel compiled for the baseline ISA
};

/// Runs every Apted kernel on the calling thread with `isa` while alive.
class ScopedIsa {
public:
  explicit ScopedIsa(Isa isa);
  ~ScopedIsa();
  ScopedIsa(const ScopedIsa &) = delete;
  ScopedIsa &operator=(const ScopedIsa &) = delete;

private:
  Isa saved_;
};

/// Bytes per DP cell `run` uses for an n1 x n2 pair under `costs` (4 or 8).
[[nodiscard]] usize cellBytes(usize n1, usize n2, const TedCosts &costs);

/// The whole TD table of an uncached, exact Apted run of (a, b), widened
/// to u64 and laid out [canonical a id][canonical b id] with row and
/// column 0 zero: the distance of every subtree pair.
[[nodiscard]] std::vector<u64> tdTable(const TreeIndex &a, const TreeIndex &b,
                                       const TedCosts &costs);

} // namespace sv::tree::apted::seam
