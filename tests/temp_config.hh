/**
 * @file
 * A config file written to a unique temp path for the tests that load
 * one through config::loadExperimentFile or `--config`.
 */

#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

namespace leaftl
{
namespace test
{

/** A config file written to a unique temp path, removed on scope exit. */
class TempConfig
{
  public:
    explicit TempConfig(const std::string &text)
    {
        char name[] = "/tmp/leaftl_test_conf_XXXXXX";
        const int fd = mkstemp(name);
        EXPECT_GE(fd, 0);
        path_ = name;
        const ssize_t n = write(fd, text.data(), text.size());
        EXPECT_EQ(static_cast<size_t>(n), text.size());
        close(fd);
    }
    ~TempConfig() { std::remove(path_.c_str()); }
    TempConfig(const TempConfig &) = delete;
    TempConfig &operator=(const TempConfig &) = delete;
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace test
} // namespace leaftl
