#include "learned/plr.hh"

#include <algorithm>
#include <cmath>

#include "util/float16.hh"

namespace leaftl
{

namespace
{

using Points = std::span<const PlrPoint>;

/**
 * Encode a candidate run of points into a Segment and verify the
 * encoded prediction error. Returns true (and fills @a out) when the
 * encoding respects the bound; false means the caller must split the
 * run.
 */
bool
tryEncode(Points run, double slope, uint32_t gamma, Segment &out)
{
    const size_t n = run.size();
    LEAFTL_ASSERT(n >= 1, "empty candidate run");

    const uint8_t s = run.front().off;
    const uint8_t e = run.back().off;

    if (n == 1) {
        out = Segment::makeSinglePoint(s, run.front().ppa);
        return true;
    }

    // Classify: a constant-stride run (with consecutive PPAs) can be an
    // accurate segment; anything else is approximate.
    bool constant_stride = true;
    const uint32_t d0 = run[1].off - run[0].off;
    for (size_t i = 1; i < n; i++) {
        if (static_cast<uint32_t>(run[i].off - run[i - 1].off) != d0 ||
            run[i].ppa != run[i - 1].ppa + 1) {
            constant_stride = false;
            break;
        }
    }

    double k = slope;
    bool approx = !constant_stride;
    if (constant_stride)
        k = 1.0 / d0;
    k = std::clamp(k, 0.0, 1.0);

    uint16_t kbits = float16Encode(static_cast<float>(k));
    kbits = float16SetTag(kbits, approx);
    const double kq = float16Decode(kbits);

    // Choose the integer intercept that centers the rounded errors.
    double lo = 1e300, hi = -1e300;
    for (const PlrPoint &p : run) {
        const double resid = p.ppa - kq * p.off;
        lo = std::min(lo, resid);
        hi = std::max(hi, resid);
    }
    const int64_t icand = std::llround((lo + hi) / 2.0);
    if (icand < INT32_MIN || icand > INT32_MAX)
        return false;

    Segment seg(s, static_cast<uint8_t>(e - s), kbits,
                static_cast<int32_t>(icand));

    // Verify against the *encoded* parameters.
    const uint32_t bound = approx ? gamma : 0;
    for (const PlrPoint &p : run) {
        const int64_t pred = seg.predict(p.off);
        const int64_t err = pred - static_cast<int64_t>(p.ppa);
        if (std::llabs(err) > bound)
            return false;
    }
    // Accurate segments must also pass the stride membership test used
    // at lookup time.
    if (!approx) {
        for (const PlrPoint &p : run) {
            if (!seg.hasLpaAccurate(p.off))
                return false;
        }
    }
    out = seg;
    return true;
}

bool fitPoints(Points pts, uint32_t gamma, std::vector<FittedSegment> &out,
               size_t max_size);

/**
 * Emit @a run as segments into @a out, splitting on encode failure
 * and applying the cost rule (file comment) to approximate segments.
 * @return false as soon as @a out holds more than @a max_size
 *         segments (the caller abandons the fit).
 */
bool
emitRun(Points run, double slope, uint32_t gamma,
        std::vector<FittedSegment> &out, size_t max_size)
{
    Segment seg;
    if (!tryEncode(run, slope, gamma, seg)) {
        // Quantization spoiled the bound: split in half and retry. A
        // single point always encodes, so this terminates.
        const size_t mid = run.size() / 2;
        LEAFTL_ASSERT(mid > 0 && mid < run.size(), "unsplittable run");
        return emitRun(run.first(mid), slope, gamma, out, max_size) &&
               emitRun(run.subspan(mid), slope, gamma, out, max_size);
    }
    if (gamma > 0 && seg.approximate()) {
        // Keep the gamma = 0 refit when its 8 B per segment is no more
        // than this segment's 8 B plus n + 1 CRB bytes.
        const size_t mark = out.size();
        const size_t exact_max =
            (Segment::kEncodedBytes + run.size() + 1) / Segment::kEncodedBytes;
        if (fitPoints(run, 0, out, mark + exact_max))
            return out.size() <= max_size;
        out.resize(mark);
    }
    FittedSegment &fs = out.emplace_back();
    fs.seg = seg;
    for (const PlrPoint &p : run)
        fs.offs.set(p.off);
    fs.count = static_cast<uint32_t>(run.size());
    return out.size() <= max_size;
}

/**
 * Append the fit of @a pts (strictly increasing offsets) to @a out.
 * @return false as soon as @a out holds more than @a max_size
 *         segments.
 */
bool
fitPoints(Points pts, uint32_t gamma, std::vector<FittedSegment> &out,
          size_t max_size)
{
    // Greedy feasible-slope cone, anchored at the run's first point.
    size_t first = 0;
    double lo = 0.0, hi = 1.0;
    for (size_t i = 1; i <= pts.size(); i++) {
        bool close = (i == pts.size());
        double new_lo = lo, new_hi = hi;
        if (!close) {
            const double dx = pts[i].off - pts[first].off;
            const double dy = static_cast<double>(pts[i].ppa) -
                              static_cast<double>(pts[first].ppa);
            new_lo = std::max(lo, (dy - gamma) / dx);
            new_hi = std::min(hi, (dy + gamma) / dx);
            if (new_lo > new_hi)
                close = true;
        }
        if (close) {
            const double slope =
                (first + 1 < i) ? (lo + hi) / 2.0 : 0.0;
            if (!emitRun(pts.subspan(first, i - first), slope, gamma, out,
                         max_size))
                return false;
            // Point i (if any) anchors the next run.
            first = i;
            lo = 0.0;
            hi = 1.0;
        } else {
            lo = new_lo;
            hi = new_hi;
        }
    }
    return true;
}

/** Fit one group's points (checked strictly increasing) into @a out. */
void
fitGroup(Points pts, uint32_t gamma, std::vector<FittedSegment> &out)
{
    for (size_t i = 1; i < pts.size(); i++) {
        LEAFTL_ASSERT(pts[i].off > pts[i - 1].off,
                      "PLR input offsets must strictly increase");
    }
    fitPoints(pts, gamma, out, SIZE_MAX);
}

} // namespace

std::vector<FittedSegment>
fitGroupSegments(const std::vector<PlrPoint> &points, uint32_t gamma)
{
    std::vector<FittedSegment> out;
    fitGroup(points, gamma, out);
    return out;
}

std::vector<uint32_t>
plrRunLengths(const std::vector<std::pair<Lpa, Ppa>> &run, uint32_t gamma)
{
    std::vector<uint32_t> lengths;
    if (run.empty())
        return lengths;

    size_t first = 0;
    double lo = 0.0, hi = 1.0;
    for (size_t i = 1; i <= run.size(); i++) {
        bool close = (i == run.size());
        if (!close) {
            const double dx = static_cast<double>(run[i].first) -
                              static_cast<double>(run[first].first);
            const double dy = static_cast<double>(run[i].second) -
                              static_cast<double>(run[first].second);
            const double new_lo = std::max(lo, (dy - gamma) / dx);
            const double new_hi = std::min(hi, (dy + gamma) / dx);
            if (new_lo > new_hi) {
                close = true;
            } else {
                lo = new_lo;
                hi = new_hi;
            }
        }
        if (close) {
            lengths.push_back(static_cast<uint32_t>(i - first));
            first = i;
            lo = 0.0;
            hi = 1.0;
        }
    }
    return lengths;
}

void
fitRun(const std::vector<std::pair<Lpa, Ppa>> &run, uint32_t gamma,
       FitArena &arena)
{
    arena.groups.clear();
    arena.segs.clear();
    size_t i = 0;
    while (i < run.size()) {
        const uint32_t group = groupOf(run[i].first);
        arena.points.clear();
        while (i < run.size() && groupOf(run[i].first) == group) {
            arena.points.push_back(
                {static_cast<uint8_t>(groupOffset(run[i].first)),
                 run[i].second});
            i++;
        }
        const auto first = static_cast<uint32_t>(arena.segs.size());
        fitGroup(arena.points, gamma, arena.segs);
        arena.groups.push_back(
            {group, first, static_cast<uint32_t>(arena.segs.size())});
    }
}

} // namespace leaftl
