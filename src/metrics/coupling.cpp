#include "metrics/coupling.hpp"

#include <algorithm>
#include <set>

namespace sv::metrics {

CouplingReport coupling(const db::CodebaseDb &c) {
  CouplingReport report;
  std::vector<std::set<std::string>> depSets;
  for (const auto &u : c.units) depSets.emplace_back(u.deps.begin(), u.deps.end());

  usize coupledPairs = 0;
  usize totalPairs = 0;
  for (usize i = 0; i < c.units.size(); ++i) {
    UnitCoupling uc;
    uc.unit = c.units[i].file;
    uc.fanOut = depSets[i].size();
    for (usize j = 0; j < c.units.size(); ++j) {
      if (i == j) continue;
      std::vector<std::string> shared;
      std::set_intersection(depSets[i].begin(), depSets[i].end(), depSets[j].begin(),
                            depSets[j].end(), std::back_inserter(shared));
      if (shared.empty()) continue;
      std::set<std::string> unionSet = depSets[i];
      unionSet.insert(depSets[j].begin(), depSets[j].end());
      uc.coupledWith.emplace_back(c.units[j].file,
                                  static_cast<double>(shared.size()) /
                                      static_cast<double>(unionSet.size()));
      ++uc.fanIn;
    }
    report.averageFanOut += static_cast<double>(uc.fanOut);
    report.units.push_back(std::move(uc));
  }
  for (usize i = 0; i < c.units.size(); ++i)
    for (usize j = i + 1; j < c.units.size(); ++j) {
      ++totalPairs;
      std::vector<std::string> shared;
      std::set_intersection(depSets[i].begin(), depSets[i].end(), depSets[j].begin(),
                            depSets[j].end(), std::back_inserter(shared));
      if (!shared.empty()) ++coupledPairs;
    }
  if (!c.units.empty()) report.averageFanOut /= static_cast<double>(c.units.size());
  if (totalPairs > 0)
    report.couplingDensity = static_cast<double>(coupledPairs) / static_cast<double>(totalPairs);
  return report;
}

TreeComplexity treeComplexity(const tree::Tree &t) {
  TreeComplexity out;
  out.nodes = t.size();
  out.depth = t.depth();
  out.leaves = t.leafCount();
  usize interior = 0;
  usize childSum = 0;
  for (const auto &n : t.nodes()) {
    if (n.firstChild == tree::kNoNode) continue;
    usize children = 0;
    for (tree::NodeId c = n.firstChild; c != tree::kNoNode; c = t.node(c).nextSibling) ++children;
    ++interior;
    childSum += children;
    out.maxBranching = std::max(out.maxBranching, children);
  }
  if (interior > 0)
    out.averageBranching = static_cast<double>(childSum) / static_cast<double>(interior);
  return out;
}

} // namespace sv::metrics
