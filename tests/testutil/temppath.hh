/**
 * @file
 * Per-test temporary file paths.
 *
 * ctest runs every test case as its own process, concurrently under
 * `ctest -j`, so a fixed file name under ::testing::TempDir() is shared
 * by every case that uses it and one case can read another's output.
 * uniqueTempPath() keys the file on the running test's suite and name
 * plus the process id, and a TempPathGuard removes it again.
 */

#ifndef MEMORIES_TESTS_TESTUTIL_TEMPPATH_HH
#define MEMORIES_TESTS_TESTUTIL_TEMPPATH_HH

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

#include <unistd.h>

namespace memories::test
{

/**
 * "<TempDir><suite>.<test>.<pid>.<name>" for the running test (suite
 * and test omitted outside one). Characters other than letters,
 * digits, '_' and '-' in the suite and test names (parameterized
 * tests carry '/') become '_'.
 */
inline std::string
uniqueTempPath(const std::string &name)
{
    std::string key;
    if (const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
        key = std::string(info->test_suite_name()) + "." + info->name() +
              ".";
        for (char &c : key) {
            if (c != '.' && c != '_' && c != '-' &&
                !std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
    }
    return ::testing::TempDir() + key + std::to_string(::getpid()) + "." +
           name;
}

/**
 * Scope guard for a test's temporary file or directory: removes
 * @p path, and everything under it, when the guard goes out of scope,
 * including when a failed ASSERT_* returns from the test early. A
 * function-local static guard removes a per-process fixture at exit.
 */
class TempPathGuard
{
  public:
    explicit TempPathGuard(std::string path) : path_(std::move(path)) {}

    ~TempPathGuard()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    TempPathGuard(const TempPathGuard &) = delete;
    TempPathGuard &operator=(const TempPathGuard &) = delete;

  private:
    std::string path_;
};

} // namespace memories::test

#endif // MEMORIES_TESTS_TESTUTIL_TEMPPATH_HH
