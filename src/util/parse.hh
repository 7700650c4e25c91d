/**
 * @file
 * Shared string-to-number and list parsing helpers. The leaftl_sim
 * flag parser and the experiment-config parser accept exactly the
 * same value grammar, so both lower through these functions: a value
 * that parses on the command line parses identically in a config
 * file (and vice versa).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace leaftl
{

/**
 * Parse an unsigned decimal integer.
 * Rejects negative input (std::stoull would silently wrap it), empty
 * strings, and trailing garbage.
 * @return true and set @a out on success.
 */
bool parseU64(const std::string &s, uint64_t &out);

/**
 * Parse a finite floating-point number (std::stod grammar, so "1e5"
 * works for rates). Rejects empty strings, trailing garbage, and
 * "nan"/"inf": no experiment value is meaningful at either, and a NaN
 * slips past any range check that tests for the bad side (v < 0).
 * @return true and set @a out on success.
 */
bool parseDouble(const std::string &s, double &out);

/** Parse "true"/"false" (also 1/0, on/off, yes/no). */
bool parseBool(const std::string &s, bool &out);

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string> splitList(const std::string &s);

} // namespace leaftl
