/**
 * @file
 * In-place vs log-structured segment updates (§3.4).
 *
 * The paper motivates the log-structured mapping table by costing the
 * alternative: updating learned segments in place requires relearning
 * the whole group, which (a) needs the exact PPA of every LPA owned
 * by an approximate segment -- ~21 flash accesses per updated
 * approximate segment on average -- and (b) breaks existing patterns,
 * inflating segments and memory by ~1.2x. This bench feeds identical
 * flush batches to both designs and measures exactly those two
 * quantities.
 */

#include <algorithm>
#include <map>
#include <unordered_map>

#include "bench_common.hh"
#include "learned/learned_table.hh"
#include "learned/plr.hh"

using namespace leaftl;

namespace
{

/** A mapping table that relearns whole groups in place on update. */
class InplaceTable
{
  public:
    explicit InplaceTable(uint32_t gamma) : gamma_(gamma) {}

    void
    learn(const std::vector<std::pair<Lpa, Ppa>> &run)
    {
        // Group the batch.
        std::map<uint32_t, std::vector<std::pair<Lpa, Ppa>>> by_group;
        for (const auto &[lpa, ppa] : run)
            by_group[groupOf(lpa)].push_back({lpa, ppa});

        for (auto &[gidx, updates] : by_group) {
            auto &g = groups_[gidx];
            // Relearning needs the exact PPA of every LPA currently
            // owned by an approximate segment: one flash access each
            // (the accurate ones are recomputable from (S, L, K, I)).
            for (const auto &fs : g.segments) {
                if (fs.seg.approximate()) {
                    flash_accesses_ += fs.count;
                    approx_updates_++;
                }
            }
            // Merge new points into the group's exact map and refit
            // everything from scratch.
            for (const auto &[lpa, ppa] : updates)
                g.points[static_cast<uint8_t>(groupOffset(lpa))] = ppa;
            std::vector<PlrPoint> pts;
            pts.reserve(g.points.size());
            for (const auto &[off, ppa] : g.points)
                pts.push_back({off, ppa});
            g.segments = fitGroupSegments(pts, gamma_);
        }
    }

    size_t
    numSegments() const
    {
        size_t n = 0;
        for (const auto &[idx, g] : groups_)
            n += g.segments.size();
        return n;
    }

    size_t
    memoryBytes() const
    {
        size_t bytes = 0;
        for (const auto &[idx, g] : groups_) {
            for (const auto &fs : g.segments) {
                bytes += Segment::kEncodedBytes;
                if (fs.seg.approximate())
                    bytes += fs.count + 1; // CRB accounting.
            }
        }
        return bytes;
    }

    uint64_t flashAccesses() const { return flash_accesses_; }
    uint64_t approxUpdates() const { return approx_updates_; }

  private:
    struct GroupState
    {
        std::map<uint8_t, Ppa> points; ///< Exact content ("on flash").
        std::vector<FittedSegment> segments;
    };

    uint32_t gamma_;
    std::map<uint32_t, GroupState> groups_;
    uint64_t flash_accesses_ = 0;
    uint64_t approx_updates_ = 0;
};

/** Produce sorted flush batches from a workload's write stream. */
std::vector<std::vector<std::pair<Lpa, Ppa>>>
flushBatches(const std::string &name, uint64_t ws, uint64_t requests)
{
    auto wl = makeMsrWorkload(name, ws, requests);
    std::vector<std::vector<std::pair<Lpa, Ppa>>> batches;
    std::vector<Lpa> buffer;
    Ppa next_ppa = 0;
    IoRequest req;
    while (wl->next(req)) {
        if (req.op != Op::Write)
            continue;
        for (uint32_t i = 0; i < req.npages; i++)
            buffer.push_back(req.lpa + i);
        if (buffer.size() >= 2048) {
            std::sort(buffer.begin(), buffer.end());
            buffer.erase(std::unique(buffer.begin(), buffer.end()),
                         buffer.end());
            std::vector<std::pair<Lpa, Ppa>> batch;
            for (Lpa lpa : buffer)
                batch.emplace_back(lpa, next_ppa++);
            batches.push_back(std::move(batch));
            buffer.clear();
        }
    }
    return batches;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchScale scale = bench::parseScale(argc, argv);
    if (scale.gamma == 0)
        scale.gamma = 4; // The claim is about approximate segments.
    bench::banner("Ablation (in-place)",
                  "log-structured vs in-place segment updates, gamma=4");

    TextTable table({"Workload", "Log segs", "Inplace segs", "Ratio",
                     "Log KiB", "Inplace KiB",
                     "Flash reads / approx update"});
    double ratio_sum = 0.0;
    int n = 0;
    for (const auto &name : msrWorkloadNames()) {
        const auto batches =
            flushBatches(name, scale.working_set_pages, scale.requests);

        LearnedTable log_table(scale.gamma);
        InplaceTable inplace(scale.gamma);
        uint64_t writes = 0;
        for (const auto &batch : batches) {
            log_table.learn(batch);
            inplace.learn(batch);
            writes += batch.size();
            if (writes >= scale.working_set_pages / 8) {
                log_table.compact();
                writes = 0;
            }
        }
        log_table.compact();

        const double ratio =
            static_cast<double>(inplace.memoryBytes()) /
            static_cast<double>(log_table.memoryBytes());
        ratio_sum += ratio;
        n++;
        const double reads_per_update =
            inplace.approxUpdates()
                ? static_cast<double>(inplace.flashAccesses()) /
                      inplace.approxUpdates()
                : 0.0;
        table.addRow({name, std::to_string(log_table.numSegments()),
                      std::to_string(inplace.numSegments()),
                      TextTable::fmt(ratio, 2),
                      TextTable::fmt(log_table.memoryBytes() / 1024.0, 1),
                      TextTable::fmt(inplace.memoryBytes() / 1024.0, 1),
                      TextTable::fmt(reads_per_update, 1)});
    }
    table.print();
    std::printf("\nAverage memory ratio (inplace/log): %.2f\n",
                ratio_sum / n);
    std::printf("Paper (§3.4): in-place updates cost ~21 flash accesses "
                "per approximate-segment relearn and ~1.2x additional "
                "segments/memory.\n");
    return 0;
}
