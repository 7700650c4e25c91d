/**
 * @file
 * Intra-run parallelism: a persistent worker pool that fans
 * disjoint-state batch work out across threads between barriers, plus
 * the oversubscription clamp the CLI front ends share.
 *
 * Concurrency discipline: the simulation itself advances on exactly
 * one thread -- the commit thread that owns the device. Workers only
 * ever run inside a parallelFor() window, and the commit thread is
 * parked inside that call until every stripe finishes, so worker
 * writes never overlap any other access to the state they touch.
 *
 * Two batch shapes ride on this pool, both bit-identical to the
 * single-thread engine:
 *   - per-group segment learns (disjoint Group objects, commutative
 *     table totals, per-worker creation tallies merged in worker
 *     order);
 *   - whole-table compaction (same disjointness argument).
 * Translation lookups stay serial: the paper's lookup (§3.4) is one
 * level scan per request, and fanning it out did not pay.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace leaftl
{

/**
 * A persistent pool of replay workers. Constructed once per run and
 * attached to the device; parallelFor() is the only entry point and
 * doubles as the conservative barrier -- it returns only when every
 * stripe has completed, so callers on the owning thread can freely
 * mutate shared state between calls.
 *
 * The calling thread executes stripe 0 itself, so a pool of
 * `workers() == T` keeps exactly T CPUs busy (T-1 spawned threads
 * plus the caller). Only the owning thread may call parallelFor();
 * the pool is not reentrant.
 */
class ShardPool
{
  public:
    /** @param workers Total workers including the caller (min 1). */
    explicit ShardPool(uint32_t workers);
    ~ShardPool();

    ShardPool(const ShardPool &) = delete;
    ShardPool &operator=(const ShardPool &) = delete;

    uint32_t workers() const { return workers_; }

    /**
     * Run fn(begin, end, worker) over a static contiguous partition
     * of [0, n): worker w always receives the same stripe for a given
     * (n, workers()), so per-worker accumulators are deterministic
     * for any thread scheduling. Returns after all stripes complete
     * (the barrier).
     *
     * The callable is type-erased to a raw function pointer plus a
     * context pointer (not std::function -- this header is on the
     * replay hot path, and the lint hot-path-std-function rule keeps
     * type-erased callables with their potential allocation out of
     * it). @a fn must stay alive until parallelFor returns, which the
     * barrier guarantees.
     */
    template <typename Fn>
    void
    parallelFor(size_t n, Fn &&fn)
    {
        runJob(n,
               [](void *ctx, size_t begin, size_t end, uint32_t w) {
                   (*static_cast<std::remove_reference_t<Fn> *>(ctx))(
                       begin, end, w);
               },
               const_cast<void *>(static_cast<const void *>(&fn)));
    }

    /** Stripe [begin, end) of worker @a w over @a n items. */
    std::pair<size_t, size_t>
    stripe(size_t n, uint32_t w) const
    {
        const size_t chunk = n / workers_;
        const size_t rem = n % workers_;
        const size_t begin = w * chunk + std::min<size_t>(w, rem);
        return {begin, begin + chunk + (w < rem ? 1 : 0)};
    }

  private:
    /** Type-erased job: (context, begin, end, worker). */
    using JobFn = void (*)(void *, size_t, size_t, uint32_t);

    /** Dispatch one barrier-bracketed job window (the out-of-line
     *  body of parallelFor). */
    void runJob(size_t n, JobFn fn, void *ctx);

    void workerLoop(uint32_t w);

    const uint32_t workers_;
    std::vector<std::thread> threads_;

    std::mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    uint64_t generation_ = 0; ///< Bumped per parallelFor dispatch.
    uint32_t pending_ = 0;    ///< Spawned workers still in the window.
    size_t job_n_ = 0;
    JobFn job_fn_ = nullptr;  ///< Current window's job, + its context.
    void *job_ctx_ = nullptr;
    bool stop_ = false;
};

/**
 * Oversubscription clamp shared by the sweep and campaign front ends:
 * cap the sweep worker count so jobs x threads does not exceed the
 * hardware concurrency @a hw. @a jobs_requested is the --jobs value
 * (0 = auto); the auto default also divides by @a threads so a
 * thread-parallel sweep never oversubscribes silently. When an
 * explicit --jobs request is reduced, @a warning (if non-null)
 * receives a one-line explanation to print.
 */
unsigned clampSweepJobs(unsigned jobs_requested, unsigned threads,
                        unsigned hw, std::string *warning);

} // namespace leaftl
