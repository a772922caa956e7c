#include <cstdio>
#include <fstream>

#include "common.hpp"

namespace e2e {

bool Answers::load(const std::string &path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) continue;
    values[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return !values.empty();
}

void Answers::save(const std::string &path) const {
  std::ofstream out(path);
  for (const auto &[k, v] : values) out << k << '\t' << v << '\n';
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string renderMatrix(const sv::analysis::DistanceMatrix &m) {
  std::string out;
  for (const auto &l : m.labels) out += l + ",";
  out += "|";
  for (const double v : m.values) out += fmt(v) + " ";
  return out;
}

std::string renderIndices(const std::vector<usize> &v) {
  std::string out;
  for (const usize i : v) out += std::to_string(i) + " ";
  return out;
}

std::string renderNeighbors(const std::vector<sv::metrics::Neighbor> &v) {
  std::string out;
  for (const auto &n : v)
    out += std::to_string(n.index) + ":" + std::to_string(n.distance) + ":" + fmt(n.normalised) +
           " ";
  return out;
}

void PassCtx::digestOnly(const std::string &key, const std::string &value) {
  digest = sv::fnv1a(value, sv::fnv1a(key, digest));
}

void PassCtx::expect(const std::string &key, const std::string &value) {
  digestOnly(key, value);
  if (record_) {
    record_->values[key] = value;
    return;
  }
  ++attempted;
  const auto it = answers_->values.find(key);
  if (it == answers_->values.end()) fail("no known answer for " + key);
  else if (it->second != value) fail("wrong answer for " + key);
}

void PassCtx::fail(const std::string &why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

} // namespace e2e
