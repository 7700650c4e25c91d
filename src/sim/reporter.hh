/**
 * @file
 * Plain-text table rendering for the bench binaries: each bench
 * prints the same rows/series as its paper figure, and TextTable keeps
 * the formatting consistent.
 */

#pragma once

#include <string>
#include <vector>

namespace leaftl
{

/** Fixed-width text table. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Render to stdout. */
    void print() const;

    static std::string fmt(double v, int precision = 2);
    static std::string fmtBytes(uint64_t bytes);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace leaftl
