// Scratch directories for tests.
//
// ctest runs every gtest case as its own process, in parallel under -j, so
// a fixed directory name is shared by concurrently running cases, and one
// case's cleanup deletes the sockets and traces another is still using.
// Names made here are unique per process and per call.  They stay short on
// purpose: unix socket paths inside them are limited to 107 bytes.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>

namespace tir::test {

/// A fresh path under the test temp directory: `<stem>_<pid>_<n>`.  Not
/// created; the caller creates and removes it.
inline std::filesystem::path unique_temp_dir(const std::string& stem) {
  static std::atomic<unsigned> counter{0};
  return std::filesystem::path(::testing::TempDir()) /
         (stem + "_" + std::to_string(::getpid()) + "_" + std::to_string(counter++));
}

}  // namespace tir::test
