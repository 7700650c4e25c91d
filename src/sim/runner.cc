#include "sim/runner.hh"

#include <algorithm>

#include "learned/learned_table.hh"
#include "sim/event_queue.hh"
#include "util/rng.hh"

namespace leaftl
{

void
Runner::prefill(Ssd &ssd, uint64_t pages)
{
    const uint64_t limit = std::min<uint64_t>(pages, ssd.config().hostPages());
    Tick now = 0;
    for (uint64_t lpa = 0; lpa < limit; lpa++) {
        now += ssd.write(static_cast<Lpa>(lpa), now);
    }
    ssd.drainBuffer(now);
}

void
Runner::prefillMixed(Ssd &ssd, uint64_t pages, uint64_t seed)
{
    const uint64_t limit = std::min<uint64_t>(pages, ssd.config().hostPages());
    const uint64_t seq_end = limit * 55 / 100;
    const uint64_t stride_end = seq_end + limit / 4;
    Rng rng(seed);
    Tick now = 0;

    // Sequential region.
    for (uint64_t lpa = 0; lpa < seq_end; lpa++)
        now += ssd.write(static_cast<Lpa>(lpa), now);
    // Strided region (stride 2, two interleaved passes cover it).
    for (uint64_t lpa = seq_end; lpa < stride_end; lpa += 2)
        now += ssd.write(static_cast<Lpa>(lpa), now);
    for (uint64_t lpa = seq_end + 1; lpa < stride_end; lpa += 2)
        now += ssd.write(static_cast<Lpa>(lpa), now);
    // Scattered region: random order (sampled with replacement plus a
    // sweep with random gaps so most pages end up written). Tiny
    // prefills can leave the region empty; Rng::nextBounded(0) is
    // undefined, so skip the phase entirely then.
    const uint64_t scatter = limit > stride_end ? limit - stride_end : 0;
    for (uint64_t i = 0; i < scatter; i++) {
        const Lpa lpa =
            static_cast<Lpa>(stride_end + rng.nextBounded(scatter));
        now += ssd.write(lpa, now);
    }
    ssd.drainBuffer(now);
}

RunResult
Runner::replay(Ssd &ssd, WorkloadSource &workload, const RunOptions &opts)
{
    RunResult res;
    res.workload = workload.name();
    res.ftl = ssd.ftl().name();
    const uint32_t qd = std::max<uint32_t>(1, opts.queue_depth);
    res.queue_depth = qd;
    const bool open = opts.admission == Admission::Open;
    res.admission = opts.admission;

    EventQueue inflight;
    Tick clock = 0;       // Latest submission/retirement processed.
    Tick last_submit = 0; // Submissions are FIFO (NVMe SQ order).
    Tick area_cursor = 0; // Inflight-integral sweep position.
    double inflight_area = 0.0;
    Tick first_arrival = 0; // Offered-load window.
    Tick last_arrival = 0;

    // Open-loop runs measure from the arrival tick, so the arrival
    // process must not start while the channels are still draining the
    // prefill backlog -- every early request would charge that fixed
    // backlog to its own latency. Shift all arrivals past the horizon
    // where the warmed device has gone fully idle. (Closed mode keeps
    // the historical behavior: the backlog is absorbed by the
    // back-pressured loop and never counted as request latency.)
    Tick arrival_base = 0;
    if (open) {
        const ChannelTimer &ch = ssd.channels();
        for (uint32_t c = 0; c < ch.numChannels(); c++)
            arrival_base = std::max(arrival_base, ch.busyUntil(c));
    }

    // Advance the time-weighted inflight integral to tick t with the
    // current queue population.
    auto advance = [&](Tick t) {
        if (t > area_cursor) {
            inflight_area += static_cast<double>(inflight.size()) *
                             static_cast<double>(t - area_cursor);
            area_cursor = t;
        }
    };
    // Retire the earliest completion (it stays inflight up to its
    // completion tick, so integrate before popping). The event echoes
    // the request's submission tag; a tag below the running maximum
    // means this request was passed by a later submission.
    bool any_retired = false;
    uint64_t max_retired_tag = 0;
    auto retireOne = [&]() {
        advance(inflight.top().tick);
        const Event ev = inflight.pop();
        clock = std::max(clock, ev.tick);
        if (any_retired && ev.tag < max_retired_tag) {
            res.ooo_completions++;
        } else {
            max_retired_tag = ev.tag;
            any_retired = true;
        }
    };

    // Crash-injection schedule: before processing request i, if i
    // matches the next crash point, retire everything inflight, crash
    // and recover the device. The channel busy-until state carries the
    // recovery work, so later requests queue behind it naturally.
    size_t next_crash = 0;
    IoRequest req;
    while (workload.next(req)) {
        req.arrival += arrival_base;
        while (next_crash < opts.crash_points.size() &&
               res.requests == opts.crash_points[next_crash]) {
            next_crash++;
            while (!inflight.empty())
                retireOne();
            const RecoveryStats r = ssd.crashAndRecover(clock);
            res.recoveries++;
            res.recovery.scanned_blocks += r.scanned_blocks;
            res.recovery.scanned_pages += r.scanned_pages;
            res.recovery.relearned_mappings += r.relearned_mappings;
            res.recovery.applied_deltas += r.applied_deltas;
            res.recovery.replayed_journal_records +=
                r.replayed_journal_records;
            res.recovery.replayed_journal_bytes +=
                r.replayed_journal_bytes;
            res.recovery.recovery_time += r.recovery_time;
        }
        // The request becomes submittable once it has arrived and its
        // predecessor has been submitted (in-order submission queue).
        const Tick ready = std::max(req.arrival, last_submit);
        // Retire completions that precede it.
        while (!inflight.empty() && inflight.top().tick <= ready)
            retireOne();
        // Queue full: admission stalls until a slot frees.
        while (inflight.size() >= qd)
            retireOne();
        const Tick submit_at = std::max(ready, clock);
        advance(submit_at);

        req.tag = res.requests; // Submission index, echoed at retirement.
        const Tick done = ssd.submit(req, submit_at);
        inflight.push(done, req.tag);
        last_submit = submit_at;
        res.max_inflight =
            std::max<uint64_t>(res.max_inflight, inflight.size());

        res.queue_wait.add(static_cast<double>(submit_at - ready));
        res.service.add(static_cast<double>(done - submit_at));
        // End-to-end latency from the mode's measurement origin. Open
        // mode anchors at the shaped arrival tick, so when the device
        // falls behind the offered load the accumulated queue wait
        // lands in the tail percentiles; closed mode anchors at the
        // submittable tick (historical semantics).
        const Tick origin = open ? req.arrival : ready;
        const double e2e = static_cast<double>(done - origin);
        res.e2e_all.add(e2e);
        if (req.op == Op::Read)
            res.e2e_read.add(e2e);
        else
            res.e2e_write.add(e2e);

        if (res.requests == 0)
            first_arrival = req.arrival;
        last_arrival = std::max(last_arrival, req.arrival);
        res.pages_touched += req.npages;
        res.requests++;
    }
    while (!inflight.empty())
        retireOne();

    if (opts.drain_at_end)
        ssd.drainBuffer(clock);
    // All time-denominated results use the measured window: open-loop
    // runs start their arrival process at the post-prefill idle
    // horizon, and counting that dead time would dilute throughput and
    // mean inflight inconsistently with achieved_iops. Closed mode has
    // arrival_base = 0, so nothing changes there. (The inflight
    // integral over the pre-arrival window is 0, so dividing by the
    // window is exact, not an approximation.)
    const Tick measured = clock > arrival_base ? clock - arrival_base : 0;
    res.sim_time_ns = measured;
    res.mean_inflight =
        measured ? inflight_area / static_cast<double>(measured) : 0.0;
    // The histograms accumulate their sums in submission order, so
    // these means are bit-identical to the scalar accumulators they
    // replaced.
    res.avg_queue_wait_us = res.queue_wait.mean() / 1000.0;
    res.max_queue_wait_us = res.queue_wait.max() / 1000.0;

    if (res.requests > 1 && last_arrival > first_arrival) {
        res.offered_iops = static_cast<double>(res.requests - 1) /
                           static_cast<double>(last_arrival -
                                               first_arrival) *
                           static_cast<double>(kSecond);
    }
    if (measured > 0) {
        res.achieved_iops = static_cast<double>(res.requests) /
                            static_cast<double>(measured) *
                            static_cast<double>(kSecond);
    }

    const SsdStats &st = ssd.stats();
    res.ssd = st;
    res.avg_read_latency_us = st.read_latency.mean() / 1000.0;
    res.p99_read_latency_us = st.read_latency.percentile(99.0) / 1000.0;
    res.avg_write_latency_us = st.write_latency.mean() / 1000.0;
    res.avg_latency_us = res.service.mean() / 1000.0;

    res.mapping_bytes = ssd.ftl().fullMappingBytes();
    res.resident_bytes = ssd.ftl().residentMappingBytes();
    res.data_cache_pages = ssd.dataCachePages();

    const uint64_t hits = ssd.dataCacheHits();
    const uint64_t total = hits + ssd.dataCacheMisses();
    res.cache_hit_ratio = total ? static_cast<double>(hits) / total : 0.0;
    res.cache_hits = hits;
    res.cache_misses = ssd.dataCacheMisses();
    res.gc_pick_calls = ssd.blocks().gcPickCalls();
    res.gc_pick_scanned = ssd.blocks().gcPickScanned();
    res.waf = st.waf();
    res.mispredict_ratio = st.mispredictRatio();

    if (const auto *table = ssd.ftl().learnedTable()) {
        const auto &ls = table->stats();
        res.avg_lookup_levels =
            ls.lookups ? static_cast<double>(ls.lookup_levels_total) /
                             ls.lookups
                       : 0.0;
    }
    return res;
}

} // namespace leaftl
