#include "thread_pool.hh"

#include <memory>

#include "env.hh"
#include "logging.hh"
#include "obs/counters.hh"
#include "obs/trace.hh"

namespace splab
{

namespace
{

/** Set while this thread executes pool tasks or submits a job; a
 *  nested forEach sees it and degrades to an inline serial loop. */
thread_local bool inParallelRegion = false;

std::size_t
defaultThreadCount()
{
    long env = envLong("SPLAB_THREADS", 0);
    if (env < 0) {
        SPLAB_WARN("SPLAB_THREADS must be >= 0; using hardware "
                   "concurrency");
        env = 0;
    }
    if (env > 0)
        return static_cast<std::size_t>(env);
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::mutex &
globalPoolMutex()
{
    static std::mutex m;
    return m;
}

std::unique_ptr<ThreadPool> &
globalPoolSlot()
{
    static std::unique_ptr<ThreadPool> pool;
    return pool;
}

} // namespace

ThreadPool::ThreadPool(std::size_t nThreads)
{
    SPLAB_ASSERT(nThreads >= 1, "thread pool needs >= 1 thread");
    obs::gauge("pool.threads",
               "total parallelism of the most recent pool")
        .set(static_cast<double>(nThreads));
    workers.reserve(nThreads - 1);
    for (std::size_t t = 0; t + 1 < nThreads; ++t)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> g(mtx);
        stopping = true;
    }
    wake.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::runIndices(const std::function<void(std::size_t)> &fn,
                       std::size_t n)
{
    for (;;) {
        std::size_t i =
            nextIndex.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            return;
        std::exception_ptr err;
        try {
            fn(i);
        } catch (...) {
            err = std::current_exception();
        }
        std::lock_guard<std::mutex> g(mtx);
        if (err && (!firstError || i < firstErrorIndex)) {
            firstError = err;
            firstErrorIndex = i;
        }
        if (++completed == jobSize)
            idle.notify_all();
    }
}

void
ThreadPool::workerLoop()
{
    inParallelRegion = true;
    std::uint64_t seen = 0;
    for (;;) {
        const std::function<void(std::size_t)> *fn = nullptr;
        std::size_t n = 0;
        {
            std::unique_lock<std::mutex> g(mtx);
            wake.wait(g, [&] {
                return stopping || (jobFn && generation != seen);
            });
            if (stopping)
                return;
            seen = generation;
            fn = jobFn;
            n = jobSize;
            ++claimers;
        }
        runIndices(*fn, n);
        {
            std::lock_guard<std::mutex> g(mtx);
            // The submitter must not recycle the claim counter while
            // any worker could still fetch_add on it (see forEach).
            if (--claimers == 0 && completed == jobSize)
                idle.notify_all();
        }
    }
}

void
ThreadPool::forEach(std::size_t n,
                    const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    {
        // Counted work, not scheduling: jobs and task totals are a
        // pure function of the call structure, so they stay
        // deterministic at any thread count (manifest contract).
        static obs::Counter &jobs =
            obs::counter("pool.jobs", "parallelFor invocations");
        static obs::Counter &tasks =
            obs::counter("pool.tasks", "parallelFor indices run");
        jobs.add();
        tasks.add(n);
    }
    // One job at a time: a submitter that finds the slot taken by
    // another thread's job runs inline rather than waiting for it.
    std::unique_lock<std::mutex> submitter;
    if (!workers.empty() && !inParallelRegion && n > 1)
        submitter = std::unique_lock<std::mutex>(submitMtx,
                                                 std::try_to_lock);
    if (!submitter.owns_lock()) {
        // Inline execution.  The algorithmic structure (who computes
        // what) is identical to the parallel path, so results cannot
        // depend on which path ran; like the pool path, every index
        // runs and the lowest-index exception is rethrown.
        std::exception_ptr err;
        for (std::size_t i = 0; i < n; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!err)
                    err = std::current_exception();
            }
        }
        if (err)
            std::rethrow_exception(err);
        return;
    }

    // Thread-pool-aware trace attribution: workers inherit the
    // submitting thread's span path, so spans opened inside tasks
    // keep the same full path ("stage/sub.stage") the inline serial
    // path would produce — span statistics are thread-count
    // invariant.  Only wrapped when there is a context to carry.
    std::function<void(std::size_t)> traced;
    const std::function<void(std::size_t)> *job = &fn;
    std::string ctx = obs::traceContext();
    if (!ctx.empty()) {
        traced = [&fn, ctx](std::size_t i) {
            obs::TraceContextGuard guard(ctx);
            fn(i);
        };
        job = &traced;
    }

    inParallelRegion = true;
    {
        std::lock_guard<std::mutex> g(mtx);
        jobFn = job;
        jobSize = n;
        completed = 0;
        firstError = nullptr;
        firstErrorIndex = n;
        nextIndex.store(0, std::memory_order_relaxed);
        ++generation;
    }
    wake.notify_all();

    runIndices(fn, n);

    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> g(mtx);
        idle.wait(g, [&] {
            return completed == jobSize && claimers == 0;
        });
        jobFn = nullptr;
        err = firstError;
        firstError = nullptr;
    }
    inParallelRegion = false;
    if (err)
        std::rethrow_exception(err);
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> g(globalPoolMutex());
    auto &slot = globalPoolSlot();
    if (!slot)
        slot = std::make_unique<ThreadPool>(defaultThreadCount());
    return *slot;
}

void
ThreadPool::setGlobalThreads(std::size_t n)
{
    std::lock_guard<std::mutex> g(globalPoolMutex());
    globalPoolSlot() = std::make_unique<ThreadPool>(
        n ? n : defaultThreadCount());
}

std::size_t
parallelThreads()
{
    return ThreadPool::global().threads();
}

void
parallelFor(std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    ThreadPool::global().forEach(n, fn);
}

std::vector<ChunkRange>
fixedChunks(std::size_t n, std::size_t chunkSize)
{
    SPLAB_ASSERT(chunkSize >= 1, "chunk size must be >= 1");
    std::vector<ChunkRange> chunks;
    chunks.reserve((n + chunkSize - 1) / chunkSize);
    for (std::size_t b = 0; b < n; b += chunkSize) {
        std::size_t e = b + chunkSize < n ? b + chunkSize : n;
        chunks.push_back({b, e});
    }
    return chunks;
}

} // namespace splab
