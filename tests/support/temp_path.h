// Per-process scratch paths for the suites' state dirs and files.
//
// Every suite keeps its scratch state under ::testing::TempDir(), the
// build tree's own TEST_TMPDIR (tests/CMakeLists.txt). A fixed name
// there is shared by every run of that tree, so two ctest runs at once
// would wipe each other's crash sweeps mid-run; the process id in each
// name keeps concurrent runs apart. A test program whose tests all
// passed removes the paths it was handed when it exits, so the per-run
// names do not pile up; a failing one leaves them for inspection.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <system_error>

namespace sybil::testsupport {

/// `<TempDir>/<prefix><name>.<pid>`, with any copy of it removed. The
/// same prefix and name give the same path throughout one process.
inline std::string fresh_temp_path(const std::string& prefix,
                                   const std::string& name) {
  struct HandedOut {
    std::set<std::string> paths;
    ~HandedOut() {
      if (::testing::UnitTest::GetInstance()->Failed()) return;
      std::error_code ec;
      for (const std::string& p : paths) std::filesystem::remove_all(p, ec);
    }
  };
  static HandedOut handed_out;
  const std::string path = ::testing::TempDir() + "/" + prefix + name + "." +
                           std::to_string(::getpid());
  std::filesystem::remove_all(path);
  handed_out.paths.insert(path);
  return path;
}

}  // namespace sybil::testsupport
