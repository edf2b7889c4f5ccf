// Build provenance stamp: compiler, build type, flags, git hash.
//
// Emitted as a comment header in every bench CSV (bench/common.h) so a
// fig4*.csv / table1.csv artifact is traceable to the exact build that
// produced it. The git hash and flags are injected by CMake into
// build_info.cpp only, so they never trigger a full rebuild.
#pragma once

#include <string>

namespace ullsnn::obs {

struct BuildInfo {
  std::string compiler;    // e.g. "gcc 12.2.0" (from __VERSION__)
  std::string build_type;  // CMAKE_BUILD_TYPE
  std::string flags;       // effective CXX flags for that build type
  std::string git_hash;    // short hash, or "unknown" outside a git checkout
};

const BuildInfo& build_info();

/// Multi-line human-readable stamp (no trailing newline), one field per line,
/// e.g. for Table::write_csv comment headers.
std::string build_info_comment();

}  // namespace ullsnn::obs
