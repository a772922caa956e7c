#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "db/codebase.hpp"
#include "db/diskload.hpp"
#include "vm/vm.hpp"

using namespace sv;
namespace fs = std::filesystem;

namespace {

class DiskLoadFixture : public ::testing::Test {
protected:
  fs::path root_;

  void SetUp() override {
    root_ = fs::temp_directory_path() / ("svale_test_" + std::to_string(::getpid()));
    fs::create_directories(root_ / "src");
    fs::create_directories(root_ / "include");
    write("compile_commands.json", R"([
      {"directory": "/b", "arguments": ["c++", "-fopenmp", "-c", "src/main.cpp"],
       "file": "src/main.cpp"}
    ])");
    write("src/main.cpp", R"(#include "util.h"
#include <mylib.h>
int main() {
  double s = 0.0;
  #pragma omp parallel for reduction(+:s)
  for (int i = 0; i < 10; i++) {
    s += weight(i);
  }
  printf("sum", s);
  return s == 45.0 ? 0 : 1;
}
)");
    write("src/util.h", "#pragma once\ndouble weight(int i);\n");
    write("include/mylib.h", "#pragma once\nint printf(const char* fmt);\n");
    // util.h declares weight(); define it in a second file not in the DB —
    // headers resolve by exact relative name.
    write("src/util.cpp", "double weight(int i) { return i * 1.0; }\n");
  }

  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string &rel, const std::string &text) {
    std::ofstream out(root_ / rel);
    out << text;
  }
};

} // namespace

TEST_F(DiskLoadFixture, LoadsFilesAndCommands) {
  const auto cb = db::loadFromDisk(root_.string());
  EXPECT_GE(cb.sources.fileCount(), 4u);
  ASSERT_EQ(cb.commands.size(), 1u);
  EXPECT_EQ(cb.commands[0].file, "src/main.cpp");
  EXPECT_TRUE(cb.sources.idOf("src/util.h").has_value());
  EXPECT_TRUE(cb.sources.idOf("include/mylib.h").has_value());
}

TEST_F(DiskLoadFixture, IndexesWithModelFromFlags) {
  const auto cb = db::loadFromDisk(root_.string());
  const auto result = db::index(cb);
  EXPECT_EQ(result.db.modelKind, ir::Model::OpenMP);
  ASSERT_EQ(result.db.units.size(), 1u);
  // util.h is a local header (dep); mylib.h is under include/ (system).
  EXPECT_EQ(result.db.units[0].deps, (std::vector<std::string>{"src/util.h"}));
  bool sawDirective = false;
  for (const auto &n : result.db.units[0].tsem.nodes())
    if (n.label.find("OMPParallelForDirective") != std::string::npos) sawDirective = true;
  EXPECT_TRUE(sawDirective);
}

TEST_F(DiskLoadFixture, MissingDbThrows) {
  fs::remove(root_ / "compile_commands.json");
  EXPECT_THROW((void)db::loadFromDisk(root_.string()), ParseError);
}

TEST_F(DiskLoadFixture, CommandReferencingMissingFileThrows) {
  write("compile_commands.json", R"([
    {"directory": "/b", "arguments": ["c++", "-c", "src/ghost.cpp"], "file": "src/ghost.cpp"}
  ])");
  EXPECT_THROW((void)db::loadFromDisk(root_.string()), ParseError);
}

TEST_F(DiskLoadFixture, AbsolutePathsNormalised) {
  const auto abs = (root_ / "src/main.cpp").string();
  write("compile_commands.json", std::string(R"([
    {"directory": "/b", "arguments": ["c++", "-c", ")") +
                                        abs + R"("], "file": ")" + abs + R"("}
  ])");
  const auto cb = db::loadFromDisk(root_.string());
  EXPECT_EQ(cb.commands[0].file, "src/main.cpp");
}

TEST_F(DiskLoadFixture, LoadsEveryFortranExtension) {
  // Every extension lang::isFortranFile accepts is registered from disk.
  write("compile_commands.json", R"([
    {"directory": "/b", "arguments": ["gfortran", "-c", "src/main.f03"], "file": "src/main.f03"}
  ])");
  write("src/main.f03", "program p\n  integer :: i\n  i = 1\nend program\n");
  const auto cb = db::loadFromDisk(root_.string());
  ASSERT_EQ(cb.commands.size(), 1u);
  EXPECT_TRUE(cb.sources.idOf("src/main.f03").has_value());
  EXPECT_TRUE(db::isFortranFile(cb.commands[0].file));
}
