#include "tree/tedengine.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <tuple>
#include <unordered_map>

#include "support/hash.hpp"

namespace sv::tree {

namespace {

/// Memo key for one unordered tree pair under fixed costs. ted(a, b,
/// {del, ins, ren}) == ted(b, a, {ins, del, ren}) — reversing an edit
/// script swaps deletions and insertions — so keys are canonicalised by
/// ordering the (fingerprint, size) pairs and swapping del/ins alongside.
struct PairKey {
  u64 fp1 = 0, fp2 = 0;
  usize n1 = 0, n2 = 0;
  u32 del = 0, ins = 0, rename = 0;

  bool operator==(const PairKey &) const = default;
};

struct PairKeyHash {
  usize operator()(const PairKey &k) const {
    u64 h = hashCombine(k.fp1, k.fp2);
    h = hashCombine(h, static_cast<u64>(k.n1));
    h = hashCombine(h, static_cast<u64>(k.n2));
    h = hashCombine(h, (static_cast<u64>(k.del) << 40) ^ (static_cast<u64>(k.ins) << 20) ^
                           static_cast<u64>(k.rename));
    return static_cast<usize>(h);
  }
};

/// What the memo knows about a pair: its exact distance, or, after a DP
/// abandoned at cutoff c, the proven lower bound c.
struct PairOutcome {
  u64 value = 0;
  bool exact = false;
};

struct ViewKey {
  u64 fp = 0;
  usize n = 0;
  bool operator==(const ViewKey &) const = default;
};

struct ViewKeyHash {
  usize operator()(const ViewKey &k) const {
    return static_cast<usize>(hashCombine(k.fp, static_cast<u64>(k.n)));
  }
};

} // namespace

struct TedEngine::Impl {
  mutable std::mutex viewMutex;
  std::unordered_map<ViewKey, std::shared_ptr<const apted::TreeIndex>, ViewKeyHash> viewCache;

  mutable std::mutex memoMutex;
  std::unordered_map<PairKey, PairOutcome, PairKeyHash> memo;

  std::atomic<u64> viewHits{0}, viewMisses{0};
  std::atomic<u64> memoHits{0}, memoMisses{0};
  std::atomic<u64> wholeTreeShortcuts{0};
  std::atomic<u64> strategyMisses{0};
  std::atomic<u64> spfKernels[4]{0, 0, 0, 0};
  std::atomic<u64> spfSubproblems[4]{0, 0, 0, 0};
  std::atomic<u64> subtreeBlockHits{0};
  std::atomic<u64> prunedByCutoff{0}, cutoffExact{0};
};

TedEngine::TedEngine() : impl_(std::make_unique<Impl>()) {}
TedEngine::~TedEngine() = default;

TedEngine &TedEngine::global() {
  static TedEngine engine;
  return engine;
}

std::shared_ptr<const apted::TreeIndex> TedEngine::views(const Tree &t) {
  const ViewKey key{t.fingerprint(), t.size()};
  {
    std::lock_guard lock(impl_->viewMutex);
    const auto it = impl_->viewCache.find(key);
    if (it != impl_->viewCache.end()) {
      impl_->viewHits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Build outside the lock: a racing builder of the same tree just produces
  // an equivalent view and the first insertion wins.
  auto built = std::make_shared<const apted::TreeIndex>(apted::buildIndex(t));
  impl_->viewMisses.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(impl_->viewMutex);
  return impl_->viewCache.emplace(key, std::move(built)).first->second;
}

u64 TedEngine::ted(const Tree &a, const Tree &b, const TedOptions &options) {
  // The oracle stays independent of everything cached here.
  if (options.algo == TedAlgo::ZhangShasha) return tree::ted(a, b, options);

  const TedCosts &costs = options.costs;
  const u64 cutoff = options.cutoff;
  const auto clamp = [cutoff](u64 d) { return cutoff ? std::min(d, cutoff) : d; };
  if (a.empty()) return clamp(static_cast<u64>(b.size()) * costs.ins);
  if (b.empty()) return clamp(static_cast<u64>(a.size()) * costs.del);

  const auto va = views(a);
  const auto vb = views(b);
  const apted::TreeIndex &ia = *va;
  const apted::TreeIndex &ib = *vb;

  // Whole-tree equality: identical units (shared headers, unchanged
  // kernels) answer from the cached fingerprints.
  if (ia.fp[ia.n] == ib.fp[ib.n] && ia.n == ib.n) {
    impl_->wholeTreeShortcuts.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }

  PairKey key{ia.fp[ia.n], ib.fp[ib.n], ia.n, ib.n, costs.del, costs.ins, costs.rename};
  const bool swapped = std::tie(key.fp1, key.n1) > std::tie(key.fp2, key.n2);
  if (swapped) {
    std::swap(key.fp1, key.fp2);
    std::swap(key.n1, key.n2);
    std::swap(key.del, key.ins);
  }
  {
    // An exact distance answers every query. A lower bound c answers any
    // cutoff <= c, because min(exact, cutoff) == cutoff there.
    std::lock_guard lock(impl_->memoMutex);
    const auto it = impl_->memo.find(key);
    if (it != impl_->memo.end() &&
        (it->second.exact || (cutoff > 0 && cutoff <= it->second.value))) {
      impl_->memoHits.fetch_add(1, std::memory_order_relaxed);
      return clamp(it->second.value);
    }
  }

  impl_->memoMisses.fetch_add(1, std::memory_order_relaxed);

  // Refine. The DP always executes in the memo's canonical orientation:
  // ted(a, b, {del, ins, ren}) == ted(b, a, {ins, del, ren}), and key.del /
  // key.ins were swapped alongside the trees above — so TD blocks and cutoff
  // behaviour are shared by both query directions. The strategy matrix is
  // O(n1 * n2) and lives only as long as this run, as in `tree::ted()`.
  const apted::TreeIndex &A = swapped ? ib : ia;
  const apted::TreeIndex &B = swapped ? ia : ib;
  impl_->strategyMisses.fetch_add(1, std::memory_order_relaxed);
  apted::RunCounters rc;
  const u64 result = apted::run(A, B, apted::computeStrategy(A, B), {key.del, key.ins, key.rename},
                                /*reuseBlocks=*/true, &rc, cutoff);
  for (usize k = 0; k < 4; ++k) {
    impl_->spfKernels[k].fetch_add(rc.kernels[k], std::memory_order_relaxed);
    impl_->spfSubproblems[k].fetch_add(rc.subproblems[k], std::memory_order_relaxed);
  }
  impl_->subtreeBlockHits.fetch_add(rc.blockHits, std::memory_order_relaxed);

  // result == cutoff may be an abandoned run, so it only proves the lower
  // bound `cutoff`. Anything below the cutoff is exact.
  const PairOutcome outcome{clamp(result), cutoff == 0 || result < cutoff};
  if (cutoff > 0)
    (outcome.exact ? impl_->cutoffExact : impl_->prunedByCutoff)
        .fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(impl_->memoMutex);
  // A concurrent DP of the same pair may have landed first: keep an exact
  // distance over a bound, and the higher of two bounds.
  const auto [it, inserted] = impl_->memo.try_emplace(key, outcome);
  if (!inserted && !it->second.exact && (outcome.exact || outcome.value > it->second.value))
    it->second = outcome;
  return outcome.value;
}

EngineStats TedEngine::stats() const {
  EngineStats s;
  s.viewHits = impl_->viewHits.load();
  s.viewMisses = impl_->viewMisses.load();
  s.memoHits = impl_->memoHits.load();
  s.memoMisses = impl_->memoMisses.load();
  s.wholeTreeShortcuts = impl_->wholeTreeShortcuts.load();
  s.strategyMisses = impl_->strategyMisses.load();
  for (usize k = 0; k < 4; ++k) {
    s.spfKernels[k] = impl_->spfKernels[k].load();
    s.spfSubproblems[k] = impl_->spfSubproblems[k].load();
  }
  s.subtreeBlockHits = impl_->subtreeBlockHits.load();
  s.prunedByCutoff = impl_->prunedByCutoff.load();
  s.cutoffExact = impl_->cutoffExact.load();
  return s;
}

void TedEngine::clear() {
  {
    std::lock_guard lock(impl_->viewMutex);
    impl_->viewCache.clear();
  }
  {
    std::lock_guard lock(impl_->memoMutex);
    impl_->memo.clear();
  }
  impl_->viewHits = 0;
  impl_->viewMisses = 0;
  impl_->memoHits = 0;
  impl_->memoMisses = 0;
  impl_->wholeTreeShortcuts = 0;
  impl_->strategyMisses = 0;
  for (usize k = 0; k < 4; ++k) {
    impl_->spfKernels[k] = 0;
    impl_->spfSubproblems[k] = 0;
  }
  impl_->subtreeBlockHits = 0;
  impl_->prunedByCutoff = 0;
  impl_->cutoffExact = 0;
}

u64 tedDispatch(const Tree &a, const Tree &b, const TedOptions &options) {
  if (options.useCache) return TedEngine::global().ted(a, b, options);
  return ted(a, b, options);
}

} // namespace sv::tree
