#include "src/obs/build_info.h"

#ifndef ULLSNN_GIT_HASH
#define ULLSNN_GIT_HASH "unknown"
#endif
#ifndef ULLSNN_BUILD_TYPE_STR
#define ULLSNN_BUILD_TYPE_STR "unknown"
#endif
#ifndef ULLSNN_CXX_FLAGS_STR
#define ULLSNN_CXX_FLAGS_STR ""
#endif

namespace ullsnn::obs {

namespace {

std::string detect_compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info = [] {
    BuildInfo b;
    b.compiler = detect_compiler();
    b.build_type = ULLSNN_BUILD_TYPE_STR;
    b.flags = ULLSNN_CXX_FLAGS_STR;
    b.git_hash = ULLSNN_GIT_HASH;
    return b;
  }();
  return info;
}

std::string build_info_comment() {
  const BuildInfo& b = build_info();
  std::string s;
  s += "ullsnn build info\n";
  s += "compiler: " + b.compiler + '\n';
  s += "build_type: " + b.build_type + '\n';
  s += "flags: " + b.flags + '\n';
  s += "git: " + b.git_hash;
  return s;
}

}  // namespace ullsnn::obs
