// Fig 1 reproduction: two small ClangAST-shaped trees with a TED of five —
// four nodes inserted/deleted plus one relabelled at the top.
#include "common.hpp"

#include "tree/ted.hpp"

using namespace sv;
using namespace sv::tree;

int main() {
  svbench::banner("Fig 1: two ASTs with a TED distance of five");
  const auto t1 = toTree(
      build("FunctionDecl", {build("ParmVarDecl", {build("DeclRefExpr"), build("IntegerLiteral")}),
                             build("CompoundStmt")}));
  const auto t2 = toTree(build(
      "FunctionTemplateDecl",
      {build("ParmVarDecl"), build("CompoundStmt", {build("CallExpr"), build("ReturnStmt")})}));

  std::printf("T1:\n%s\nT2:\n%s\n", t1.pretty().c_str(), t2.pretty().c_str());
  const auto zs = ted(t1, t2, TedOptions{TedAlgo::ZhangShasha, {}});
  const auto ap = ted(t1, t2);
  std::printf("d_TED (Zhang-Shasha) = %llu\n", static_cast<unsigned long long>(zs));
  std::printf("d_TED (Apted)        = %llu\n", static_cast<unsigned long long>(ap));
  std::printf("paper value          = 5\n");
  return zs == 5 && ap == 5 ? 0 : 1;
}
