/**
 * @file
 * One valid, non-default sample value per experiment key, shared by
 * the tests that walk config::knownExperimentKeys(): a key added to
 * the table without a sample here fails them.
 */

#pragma once

#include <map>
#include <string>

namespace leaftl
{
namespace test
{

inline const std::map<std::string, std::string> &
experimentKeySamples()
{
    static const std::map<std::string, std::string> samples = {
        {"ftl", "leaftl,dftl,sftl"},
        {"workload", "synthetic:zipf,msr:MSR-src2"},
        {"gamma", "0,4,16"},
        {"qd", "1,64"},
        {"device", "auto,tiny"},
        {"mode", "closed,poisson"},
        {"rate", "25000,1e5"},
        {"burst-duty", "0.5"},
        {"trace-strict", "true"},
        {"jobs", "4"},
        {"requests", "1234"},
        {"ws", "4096"},
        {"dram-mb", "2"},
        {"dram-bytes", "65536"},
        {"prefill", "0.5"},
        {"read-ratio", "0.75"},
        {"interarrival", "2.5"},
        {"seed", "7"},
        {"journal-threshold", "4096"},
        {"crash-at", "500,100"},
    };
    return samples;
}

} // namespace test
} // namespace leaftl
