#include "src/obs/build_info.h"

#include <gtest/gtest.h>

#include <sstream>

namespace ullsnn::obs {
namespace {

TEST(BuildInfo, CompilerDetected) {
  const BuildInfo& b = build_info();
  EXPECT_FALSE(b.compiler.empty());
  EXPECT_NE(b.compiler, "unknown");
}

TEST(BuildInfo, CommentHasOneFieldPerLineNoTrailingNewline) {
  const std::string comment = build_info_comment();
  ASSERT_FALSE(comment.empty());
  EXPECT_NE(comment.back(), '\n');
  std::istringstream lines(comment);
  std::string line;
  std::size_t n = 0;
  bool has_compiler = false, has_git = false;
  while (std::getline(lines, line)) {
    ++n;
    if (line.rfind("compiler: ", 0) == 0) has_compiler = true;
    if (line.rfind("git: ", 0) == 0) has_git = true;
  }
  EXPECT_EQ(n, 5U);
  EXPECT_TRUE(has_compiler);
  EXPECT_TRUE(has_git);
}

TEST(BuildInfo, StableAcrossCalls) {
  const BuildInfo& a = build_info();
  const BuildInfo& b = build_info();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace ullsnn::obs
