#include <gtest/gtest.h>

#include "perf/perf.hpp"

using namespace sv;
using namespace sv::perf;

namespace {
std::vector<KernelWork> memoryBoundDeck() {
  KernelWork triad;
  triad.name = "triad";
  triad.mixPerIter.loads = 2;
  triad.mixPerIter.stores = 1;
  triad.mixPerIter.loadBytes = 16;
  triad.mixPerIter.storeBytes = 8;
  triad.mixPerIter.flops = 2;
  triad.iterations = 1u << 25;
  return {triad};
}

std::vector<std::pair<std::string, ir::Model>> allModels() {
  return {{"serial", ir::Model::Serial},     {"omp", ir::Model::OpenMP},
          {"omp-target", ir::Model::OpenMPTarget}, {"cuda", ir::Model::Cuda},
          {"hip", ir::Model::Hip},           {"kokkos", ir::Model::Kokkos},
          {"tbb", ir::Model::Tbb},           {"std-indices", ir::Model::StdPar},
          {"sycl-usm", ir::Model::Sycl}};
}
} // namespace

TEST(Platforms, TableIIIShape) {
  const auto &ps = tableIIIPlatforms();
  ASSERT_EQ(ps.size(), 6u);
  usize gpus = 0;
  for (const auto &p : ps)
    if (p.gpu) ++gpus;
  EXPECT_EQ(gpus, 3u);
  // GPUs have order-of-magnitude higher bandwidth than CPUs (the property
  // the cascade plots rely on).
  for (const auto &p : ps) {
    if (p.gpu) EXPECT_GT(p.peakGBs, 2000);
    else EXPECT_LT(p.peakGBs, 1000);
  }
}

TEST(Support, VendorLockinMatrix) {
  const auto &ps = tableIIIPlatforms();
  for (const auto &p : ps) {
    EXPECT_EQ(supports(ir::Model::Cuda, p), p.abbr == "H100") << p.abbr;
    EXPECT_EQ(supports(ir::Model::Hip, p), p.abbr == "MI250X") << p.abbr;
    EXPECT_TRUE(supports(ir::Model::Kokkos, p)) << p.abbr;
    EXPECT_TRUE(supports(ir::Model::OpenMPTarget, p)) << p.abbr;
    EXPECT_EQ(supports(ir::Model::Tbb, p), !p.gpu) << p.abbr;
  }
}

TEST(Simulate, UnsupportedReturnsNullopt) {
  const auto &h100 = tableIIIPlatforms()[3];
  EXPECT_FALSE(simulateRuntime(memoryBoundDeck(), ir::Model::Serial, h100).has_value());
  EXPECT_TRUE(simulateRuntime(memoryBoundDeck(), ir::Model::Cuda, h100).has_value());
}

TEST(Simulate, GpuFasterThanCpuForMemoryBound) {
  const auto deck = memoryBoundDeck();
  const auto &spr = tableIIIPlatforms()[0];
  const auto &h100 = tableIIIPlatforms()[3];
  const auto cpu = simulateRuntime(deck, ir::Model::OpenMP, spr);
  const auto gpu = simulateRuntime(deck, ir::Model::Cuda, h100);
  ASSERT_TRUE(cpu && gpu);
  EXPECT_LT(*gpu, *cpu);
}

TEST(Simulate, SerialMuchSlowerThanOpenMP) {
  const auto deck = memoryBoundDeck();
  const auto &spr = tableIIIPlatforms()[0];
  const auto serial = simulateRuntime(deck, ir::Model::Serial, spr);
  const auto omp = simulateRuntime(deck, ir::Model::OpenMP, spr);
  ASSERT_TRUE(serial && omp);
  EXPECT_GT(*serial / *omp, 5.0); // one core vs the whole socket pair
}

TEST(Phi, HarmonicMeanAndZeroRules) {
  EXPECT_DOUBLE_EQ(phi({1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(phi({0.5, 0.5}), 0.5);
  EXPECT_NEAR(phi({1.0, 0.5}), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(phi({1.0, 0.0}), 0.0); // unsupported anywhere -> 0
  EXPECT_DOUBLE_EQ(phi({}), 0.0);
  // Harmonic mean <= arithmetic mean.
  EXPECT_LE(phi({0.9, 0.3, 0.6}), (0.9 + 0.3 + 0.6) / 3.0);
}

TEST(SimulateAll, EfficienciesNormalisedToBest) {
  const auto perfs = simulateAll(allModels(), memoryBoundDeck());
  for (usize pi = 0; pi < tableIIIPlatforms().size(); ++pi) {
    double best = 0;
    for (const auto &mp : perfs) best = std::max(best, mp.efficiency[pi]);
    EXPECT_NEAR(best, 1.0, 1e-12) << "platform " << pi;
  }
}

TEST(SimulateAll, CudaZeroPhiAcrossSixPlatforms) {
  // Fig 11/12: single-vendor models cannot be performance portable over H.
  const auto perfs = simulateAll(allModels(), memoryBoundDeck());
  for (const auto &mp : perfs) {
    const double p = phi(mp.efficiency);
    if (mp.kind == ir::Model::Cuda || mp.kind == ir::Model::Hip ||
        mp.kind == ir::Model::Serial || mp.kind == ir::Model::Tbb) {
      EXPECT_DOUBLE_EQ(p, 0.0) << mp.model;
    }
    if (mp.kind == ir::Model::Kokkos || mp.kind == ir::Model::OpenMPTarget) {
      EXPECT_GT(p, 0.0) << mp.model;
    }
  }
}

TEST(Cascade, PhiDecreasesAsPlatformsAdded) {
  const auto perfs = simulateAll(allModels(), memoryBoundDeck());
  for (const auto &mp : perfs) {
    const auto s = cascade(mp);
    ASSERT_EQ(s.phiAfterK.size(), 6u);
    for (usize k = 1; k < s.phiAfterK.size(); ++k)
      EXPECT_LE(s.phiAfterK[k], s.phiAfterK[k - 1] + 1e-12) << mp.model;
    // First platform: efficiency as-is.
    EXPECT_NEAR(s.phiAfterK[0], s.efficiencyOrder[0], 1e-12);
  }
}

TEST(Cascade, RenderListsModelsAndPlatforms) {
  const auto perfs = simulateAll(allModels(), memoryBoundDeck());
  const auto text = renderCascade(perfs);
  EXPECT_NE(text.find("kokkos"), std::string::npos);
  EXPECT_NE(text.find("H100"), std::string::npos);
  EXPECT_NE(text.find("PHI"), std::string::npos);
}

TEST(NavChart, RenderShowsMarkersAndLegend) {
  std::vector<NavPoint> pts = {{"omp", 0.6, 0.2, 0.05}, {"cuda", 0.0, 0.5, 0.45}};
  const auto text = renderNavigationChart(pts);
  EXPECT_NE(text.find('*'), std::string::npos);
  EXPECT_NE(text.find('o'), std::string::npos);
  EXPECT_NE(text.find("omp"), std::string::npos);
  EXPECT_NE(text.find("PHI=0.60"), std::string::npos);
}

TEST(EfficiencyFactor, AccReproducesGccQoIFinding) {
  // Section V-B: GCC OpenACC runs single-threaded in practice.
  for (const auto &p : tableIIIPlatforms()) {
    if (!p.gpu) {
      EXPECT_LT(efficiencyFactor(ir::Model::OpenAcc, p), 0.2);
    }
  }
}
