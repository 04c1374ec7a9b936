// A scratch directory private to the running test.
//
// Named from the test's full name and the process id, so parallel cases of
// one binary and two ctest runs on one machine never share files; removed
// again when the test ends.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace ganglia::testing {

class TestDir {
 public:
  TestDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "." +
                       info->name() + "." + std::to_string(::getpid());
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized names
    }
    path_ = std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TestDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace ganglia::testing
