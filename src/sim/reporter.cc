#include "sim/reporter.hh"

#include <algorithm>
#include <cstdio>


namespace leaftl
{

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
TextTable::fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
TextTable::fmtBytes(uint64_t bytes)
{
    char buf[64];
    if (bytes >= (1ull << 30)) {
        std::snprintf(buf, sizeof(buf), "%.2f GiB",
                      static_cast<double>(bytes) / (1ull << 30));
    } else if (bytes >= (1ull << 20)) {
        std::snprintf(buf, sizeof(buf), "%.2f MiB",
                      static_cast<double>(bytes) / (1ull << 20));
    } else if (bytes >= (1ull << 10)) {
        std::snprintf(buf, sizeof(buf), "%.2f KiB",
                      static_cast<double>(bytes) / (1ull << 10));
    } else {
        std::snprintf(buf, sizeof(buf), "%llu B",
                      static_cast<unsigned long long>(bytes));
    }
    return buf;
}

void
TextTable::print() const
{
    std::vector<size_t> widths(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); c++)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size() && c < widths.size(); c++)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &cells) {
        std::printf("|");
        for (size_t c = 0; c < widths.size(); c++) {
            const std::string &cell = c < cells.size() ? cells[c] : "";
            std::printf(" %-*s |", static_cast<int>(widths[c]),
                        cell.c_str());
        }
        std::printf("\n");
    };

    auto print_sep = [&]() {
        std::printf("+");
        for (size_t c = 0; c < widths.size(); c++) {
            for (size_t i = 0; i < widths[c] + 2; i++)
                std::printf("-");
            std::printf("+");
        }
        std::printf("\n");
    };

    print_sep();
    print_row(headers_);
    print_sep();
    for (const auto &row : rows_)
        print_row(row);
    print_sep();
}

} // namespace leaftl
