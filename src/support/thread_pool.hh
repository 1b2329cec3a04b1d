/**
 * @file
 * Deterministic fork-join parallelism.
 *
 * Every parallel stage in the library must produce bit-identical
 * results at any thread count.  The contract that makes that hold:
 *
 *  - parallelFor(n, fn) invokes fn(i) exactly once per index, on
 *    unspecified threads in unspecified order.  Tasks therefore
 *    write only to index-addressed slots (out[i]), never to shared
 *    accumulators.
 *  - Floating-point reductions happen *after* the parallel region,
 *    in a fixed order: either index order (parallelMap results) or
 *    chunk order over a fixedChunks() decomposition, which is a pure
 *    function of (n, chunkSize) and independent of thread count.
 *  - Every unit of work owns its seed (hashCombine(seed, i)), so no
 *    RNG state is shared across tasks.
 *
 * The worker count comes from SPLAB_THREADS (0 or unset = all
 * hardware threads) and may change wall time only, never results.
 * Nested parallelFor calls run inline on the calling worker, so
 * composed parallel stages (a parallel k-sweep whose per-k restarts
 * are themselves parallelMap calls) neither deadlock nor
 * oversubscribe.  The pool runs one job at a time: a call from a
 * second outside thread (say, two threads each driving their own
 * ArtifactGraph) while a job is in flight runs its indices inline on
 * that thread instead of waiting.  A task may therefore wait only on
 * work already running on another thread (as ArtifactGraph's
 * single-flight node wait and its cache key-lock wait do), never on
 * a pool index that has not yet started.
 */

#ifndef SPLAB_SUPPORT_THREAD_POOL_HH
#define SPLAB_SUPPORT_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace splab
{

/**
 * A persistent pool of worker threads executing index-space jobs.
 * The submitting thread participates, so a pool of size T uses T-1
 * hidden workers; size 1 never spawns a thread and runs inline.
 */
class ThreadPool
{
  public:
    /** @param nThreads total parallelism including the caller (>=1). */
    explicit ThreadPool(std::size_t nThreads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallelism (workers + the submitting thread). */
    std::size_t threads() const { return workers.size() + 1; }

    /**
     * Run fn(0..n-1) to completion across the pool.  Blocks until
     * every index finished.  If tasks throw, the exception raised by
     * the *lowest* index is rethrown here (deterministically) after
     * all indices have run.  Calls from inside a pool task, and
     * calls from another thread while a job is in flight, run the
     * whole range inline on the calling thread.  Safe to call from
     * several threads at once.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn);

    /** Process-wide pool, sized from SPLAB_THREADS on first use. */
    static ThreadPool &global();

    /**
     * Replace the global pool (test/bench hook).  @p n = 0 restores
     * the SPLAB_THREADS / hardware default.  Must not be called while
     * a parallel region is active.
     */
    static void setGlobalThreads(std::size_t n);

  private:
    void workerLoop();
    void runIndices(const std::function<void(std::size_t)> &fn,
                    std::size_t n);

    std::vector<std::thread> workers;

    /** Held by the one thread whose job occupies the job slot. */
    std::mutex submitMtx;

    std::mutex mtx;
    std::condition_variable wake; ///< workers: a job was posted
    std::condition_variable idle; ///< submitter: all indices done
    bool stopping = false;

    // Current job (guarded by mtx except the claim counter).
    const std::function<void(std::size_t)> *jobFn = nullptr;
    std::size_t jobSize = 0;
    std::uint64_t generation = 0;
    std::atomic<std::size_t> nextIndex{0};
    std::size_t completed = 0;
    std::size_t claimers = 0; ///< workers inside runIndices
    std::exception_ptr firstError;
    std::size_t firstErrorIndex = 0;
};

/** Pool parallelism actually in use (>=1). */
std::size_t parallelThreads();

/** Run fn(0..n-1) on the global pool (see ThreadPool::forEach). */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/**
 * Map an index space through @p fn, collecting results by index —
 * never by completion order — so the output is independent of
 * scheduling.  T must be default-constructible.
 */
template <typename T, typename Fn>
std::vector<T>
parallelMap(std::size_t n, Fn &&fn)
{
    std::vector<T> out(n);
    parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

/** Half-open index range [begin, end). */
struct ChunkRange
{
    std::size_t begin = 0;
    std::size_t end = 0;

    std::size_t size() const { return end - begin; }
};

/**
 * Split [0, n) into fixed chunks of @p chunkSize (last one ragged).
 * The decomposition depends only on (n, chunkSize) — never on the
 * thread count — so per-chunk partial sums reduced in chunk order
 * yield bit-identical floating-point results at any parallelism.
 */
std::vector<ChunkRange> fixedChunks(std::size_t n,
                                    std::size_t chunkSize);

/**
 * The chunked-accumulate idiom in one helper: split [0, n) with
 * fixedChunks, default-construct one Acc per chunk, and run
 * body(acc, range) for every chunk across the pool.  The returned
 * accumulators are in chunk order — reduce them serially in that
 * order to keep floating-point results thread-count invariant.
 */
template <typename Acc, typename Fn>
std::vector<Acc>
parallelChunkApply(std::size_t n, std::size_t chunkSize, Fn &&body)
{
    const auto chunks = fixedChunks(n, chunkSize);
    std::vector<Acc> accs(chunks.size());
    parallelFor(chunks.size(),
                [&](std::size_t ci) { body(accs[ci], chunks[ci]); });
    return accs;
}

} // namespace splab

#endif // SPLAB_SUPPORT_THREAD_POOL_HH
