#include "sim/metrics.hh"

namespace leaftl
{

const char *
admissionName(Admission mode)
{
    return mode == Admission::Open ? "open" : "closed";
}

} // namespace leaftl
