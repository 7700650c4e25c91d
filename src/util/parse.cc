#include "util/parse.hh"

#include <cctype>
#include <cmath>
#include <sstream>

namespace leaftl
{

bool
parseU64(const std::string &s, uint64_t &out)
{
    // std::stoull accepts (and wraps) negative input; require digits.
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    try {
        size_t pos = 0;
        const unsigned long long v = std::stoull(s, &pos);
        if (pos != s.size())
            return false;
        out = v;
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

bool
parseDouble(const std::string &s, double &out)
{
    try {
        size_t pos = 0;
        const double v = std::stod(s, &pos);
        if (pos != s.size() || !std::isfinite(v))
            return false;
        out = v;
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

bool
parseBool(const std::string &s, bool &out)
{
    if (s == "true" || s == "1" || s == "on" || s == "yes") {
        out = true;
        return true;
    }
    if (s == "false" || s == "0" || s == "off" || s == "no") {
        out = false;
        return true;
    }
    return false;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(s);
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace leaftl
