/**
 * @file
 * Process-wide registry of named statistics in the gem5 stats idiom:
 * dotted hierarchical names ("pinball.instrs_replayed"), registered
 * once, sampled at report time.
 *
 * Two kinds:
 *  - Counter: monotonic, incremented from any thread (relaxed
 *    atomics).  Every counter in the library accumulates a quantity
 *    that is a pure function of the work performed — never of
 *    scheduling — so snapshots are byte-identical at any
 *    SPLAB_THREADS setting.  This is what lets run manifests act as
 *    cross-machine diffable records.
 *  - Gauge: a double level, last write wins (thread count) or
 *    accumulated (seconds spent in an engine stage).  Gauges MAY be
 *    scheduling- or environment-dependent, so manifests report them
 *    only in the volatile section.
 *
 * Hot call sites cache the reference:
 *     static obs::Counter &c = obs::counter("pin.windows");
 *     c.add();
 */

#ifndef SPLAB_OBS_COUNTERS_HH
#define SPLAB_OBS_COUNTERS_HH

#include <atomic>
#include <map>
#include <string>

#include "support/types.hh"

namespace splab
{
namespace obs
{

/** Monotonic event counter; add() is wait-free. */
class Counter
{
  public:
    void
    add(u64 delta = 1)
    {
        val.fetch_add(delta, std::memory_order_relaxed);
    }

    u64 value() const { return val.load(std::memory_order_relaxed); }

    void reset() { val.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<u64> val{0};
};

/** Level indicator: last write wins, or an accumulated quantity
 *  such as seconds spent in a stage. */
class Gauge
{
  public:
    void
    set(double v)
    {
        val.store(v, std::memory_order_relaxed);
    }

    void
    add(double delta)
    {
        val.fetch_add(delta, std::memory_order_relaxed);
    }

    double value() const { return val.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> val{0.0};
};

/**
 * Look up (registering on first use) the counter @p name.
 * References stay valid for the process lifetime.
 * @param desc one-line description recorded at registration; later
 *             calls may omit it.
 */
Counter &counter(const std::string &name,
                 const std::string &desc = "");

/** Look up (registering on first use) the gauge @p name. */
Gauge &gauge(const std::string &name, const std::string &desc = "");

/** Name -> value of every registered counter, sorted by name. */
std::map<std::string, u64> counterSnapshot();

/** Name -> value of every registered gauge, sorted by name. */
std::map<std::string, double> gaugeSnapshot();

/** Description registered for a counter/gauge ("" if none). */
std::string statDescription(const std::string &name);

/** Zero every registered counter (tests and benches). */
void resetCounters();

} // namespace obs
} // namespace splab

#endif // SPLAB_OBS_COUNTERS_HH
