#include "analysis/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/parallel.hpp"
#include "support/strings.hpp"

namespace sv::analysis {

DistanceMatrix buildMatrix(std::vector<std::string> labels,
                           const std::function<double(usize, usize)> &distance) {
  DistanceMatrix m;
  m.labels = std::move(labels);
  const usize n = m.labels.size();
  m.values.assign(n * n, 0.0);
  // Upper-triangle pairs, computed in parallel: the TED pairs dominate the
  // whole workflow's runtime (Section VII), so this is the hot loop.
  std::vector<std::pair<usize, usize>> pairs;
  for (usize i = 0; i < n; ++i)
    for (usize j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  std::vector<double> results(pairs.size());
  parallelFor(
      pairs.size(), [&](usize k) { results[k] = distance(pairs[k].first, pairs[k].second); }, 0,
      "matrix-entries");
  for (usize k = 0; k < pairs.size(); ++k)
    m.set(pairs[k].first, pairs[k].second, results[k]);
  return m;
}

namespace {

double euclideanRows(const DistanceMatrix &m, usize a, usize b) {
  double acc = 0;
  for (usize k = 0; k < m.size(); ++k) {
    const double d = m.at(a, k) - m.at(b, k);
    acc += d * d;
  }
  return std::sqrt(acc);
}

} // namespace

std::vector<Merge> cluster(const DistanceMatrix &m, bool euclidean) {
  const usize n = m.size();
  std::vector<Merge> merges;
  if (n < 2) return merges;

  // Active cluster ids (leaves 0..n-1, merges n+i) and their member leaves.
  std::vector<usize> active;
  std::vector<std::vector<usize>> members;
  for (usize i = 0; i < n; ++i) {
    active.push_back(i);
    members.push_back({i});
  }

  // Base pairwise point distances.
  std::vector<double> pointDist(n * n, 0.0);
  for (usize i = 0; i < n; ++i)
    for (usize j = 0; j < n; ++j)
      pointDist[i * n + j] = euclidean ? euclideanRows(m, i, j) : m.at(i, j);

  const auto completeLinkage = [&](const std::vector<usize> &a, const std::vector<usize> &b) {
    double worst = 0;
    for (const usize x : a)
      for (const usize y : b) worst = std::max(worst, pointDist[x * n + y]);
    return worst;
  };

  while (active.size() > 1) {
    double best = std::numeric_limits<double>::infinity();
    usize bi = 0, bj = 1;
    for (usize i = 0; i < active.size(); ++i) {
      for (usize j = i + 1; j < active.size(); ++j) {
        const double d = completeLinkage(members[i], members[j]);
        if (d < best) {
          best = d;
          bi = i;
          bj = j;
        }
      }
    }
    merges.push_back(Merge{active[bi], active[bj], best});
    // Merge bj into bi; new cluster id = n + merges.size() - 1.
    std::vector<usize> combined = members[bi];
    combined.insert(combined.end(), members[bj].begin(), members[bj].end());
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(bj));
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(bj));
    active[bi] = n + merges.size() - 1;
    members[bi] = std::move(combined);
  }
  return merges;
}

std::vector<usize> cutClusters(const std::vector<Merge> &merges, usize leafCount, usize k) {
  std::vector<usize> group(leafCount);
  for (usize i = 0; i < leafCount; ++i) group[i] = i;
  if (k >= leafCount || merges.empty()) return group;
  // Apply merges in order (ascending height for complete linkage) until
  // only k clusters remain. Union-find over leaves.
  std::vector<usize> parent(leafCount + merges.size());
  for (usize i = 0; i < parent.size(); ++i) parent[i] = i;
  const std::function<usize(usize)> find = [&](usize x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  const usize mergesToApply = leafCount - k;
  for (usize i = 0; i < mergesToApply && i < merges.size(); ++i) {
    const usize target = leafCount + i;
    parent[find(merges[i].left)] = target;
    parent[find(merges[i].right)] = target;
  }
  // Relabel roots compactly.
  std::vector<usize> rootIds;
  for (usize i = 0; i < leafCount; ++i) {
    const usize r = find(i);
    auto it = std::find(rootIds.begin(), rootIds.end(), r);
    if (it == rootIds.end()) {
      rootIds.push_back(r);
      group[i] = rootIds.size() - 1;
    } else {
      group[i] = static_cast<usize>(it - rootIds.begin());
    }
  }
  return group;
}

KMedoidsResult kMedoids(const DistanceMatrix &m, usize k) {
  KMedoidsResult out;
  const usize n = m.size();
  if (n == 0) return out;
  k = std::min(std::max<usize>(k, 1), n);

  // Per-member distance to its closest chosen medoid so far.
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  std::vector<bool> isMedoid(n, false);

  // BUILD: greedily add the medoid with the largest total cost reduction;
  // the first pick minimises total distance outright.
  for (usize round = 0; round < k; ++round) {
    double bestGain = -std::numeric_limits<double>::infinity();
    usize best = 0;
    for (usize c = 0; c < n; ++c) {
      if (isMedoid[c]) continue;
      double gain = 0;
      for (usize x = 0; x < n; ++x) {
        const double d = m.at(x, c);
        if (d < nearest[x]) gain += nearest[x] == std::numeric_limits<double>::infinity()
                                        ? -d // first round: minimise the plain sum
                                        : nearest[x] - d;
      }
      if (round == 0) {
        // With no medoids yet every nearest[] is infinite; compare sums.
        gain = 0;
        for (usize x = 0; x < n; ++x) gain -= m.at(x, c);
      }
      if (gain > bestGain) {
        bestGain = gain;
        best = c;
      }
    }
    isMedoid[best] = true;
    out.medoids.push_back(best);
    for (usize x = 0; x < n; ++x) nearest[x] = std::min(nearest[x], m.at(x, best));
  }

  // SWAP: replace a medoid with a non-medoid while total cost improves.
  const auto totalCost = [&](const std::vector<usize> &medoids) {
    double cost = 0;
    for (usize x = 0; x < n; ++x) {
      double d = std::numeric_limits<double>::infinity();
      for (const usize c : medoids) d = std::min(d, m.at(x, c));
      cost += d;
    }
    return cost;
  };
  double cost = totalCost(out.medoids);
  bool improved = true;
  while (improved) {
    improved = false;
    for (usize mi = 0; mi < out.medoids.size() && !improved; ++mi) {
      for (usize c = 0; c < n && !improved; ++c) {
        if (isMedoid[c]) continue;
        auto candidate = out.medoids;
        candidate[mi] = c;
        const double swapped = totalCost(candidate);
        if (swapped + 1e-12 < cost) {
          isMedoid[out.medoids[mi]] = false;
          isMedoid[c] = true;
          out.medoids = std::move(candidate);
          cost = swapped;
          improved = true;
        }
      }
    }
  }

  std::sort(out.medoids.begin(), out.medoids.end());
  out.assignment.assign(n, 0);
  out.cost = 0;
  for (usize x = 0; x < n; ++x) {
    double best = std::numeric_limits<double>::infinity();
    for (usize mi = 0; mi < out.medoids.size(); ++mi) {
      const double d = m.at(x, out.medoids[mi]);
      if (d < best) {
        best = d;
        out.assignment[x] = mi;
      }
    }
    out.cost += best;
  }
  return out;
}

namespace {

struct DendroNode {
  std::string text; ///< rendered subtree lines
  usize width = 0;
};

std::string renderSubtree(usize id, usize leafCount, const std::vector<Merge> &merges,
                          const std::vector<std::string> &labels, usize depth) {
  const std::string indent(depth * 4, ' ');
  if (id < leafCount) return indent + "- " + labels[id] + "\n";
  const auto &mg = merges[id - leafCount];
  std::string out = indent + "+ [h=" + str::fmtDouble(mg.height, 3) + "]\n";
  out += renderSubtree(mg.left, leafCount, merges, labels, depth + 1);
  out += renderSubtree(mg.right, leafCount, merges, labels, depth + 1);
  return out;
}

std::string newickSubtree(usize id, usize leafCount, const std::vector<Merge> &merges,
                          const std::vector<std::string> &labels) {
  if (id < leafCount) return labels[id];
  const auto &mg = merges[id - leafCount];
  return "(" + newickSubtree(mg.left, leafCount, merges, labels) + "," +
         newickSubtree(mg.right, leafCount, merges, labels) + "):" +
         str::fmtDouble(mg.height, 3);
}

} // namespace

std::string renderDendrogram(const std::vector<Merge> &merges,
                             const std::vector<std::string> &labels) {
  if (labels.empty()) return "";
  if (merges.empty()) return "- " + labels[0] + "\n";
  return renderSubtree(labels.size() + merges.size() - 1, labels.size(), merges, labels, 0);
}

std::string toNewick(const std::vector<Merge> &merges, const std::vector<std::string> &labels) {
  if (labels.empty()) return ";";
  if (merges.empty()) return labels[0] + ";";
  return newickSubtree(labels.size() + merges.size() - 1, labels.size(), merges, labels) + ";";
}

std::string renderHeatmap(const std::vector<std::string> &rowLabels,
                          const std::vector<std::string> &colLabels,
                          const std::vector<std::vector<double>> &values) {
  // Shade ramp for [0, 1].
  static const char *kShades[] = {"  ", "░░", "▒▒", "▓▓", "██"};
  usize labelWidth = 0;
  for (const auto &l : rowLabels) labelWidth = std::max(labelWidth, l.size());

  std::string out;
  // Column header (first letter stack avoided: print rotated legend below).
  out += std::string(labelWidth + 2, ' ');
  for (usize c = 0; c < colLabels.size(); ++c)
    out += str::padRight(std::to_string(c), 2) + " ";
  out += "\n";
  for (usize r = 0; r < rowLabels.size(); ++r) {
    out += str::padRight(rowLabels[r], labelWidth) + "  ";
    for (usize c = 0; c < values[r].size(); ++c) {
      const double v = std::clamp(values[r][c], 0.0, 1.0);
      const usize shade = std::min<usize>(4, static_cast<usize>(v * 5.0));
      out += kShades[shade];
      out += " ";
    }
    // numeric row for precision
    out += "  ";
    for (usize c = 0; c < values[r].size(); ++c)
      out += str::fmtDouble(values[r][c], 2) + " ";
    out += "\n";
  }
  out += "legend:";
  for (usize c = 0; c < colLabels.size(); ++c)
    out += " " + std::to_string(c) + "=" + colLabels[c];
  out += "\n";
  return out;
}

} // namespace sv::analysis
