/**
 * @file
 * Paper-equivalent execution-time accounting.
 *
 * The paper's Figure 5(b) reports hours-scale Whole Run times and
 * minutes-scale Regional Run times measured on their testbed.  Our
 * model runs complete in seconds, so for paper-style time reporting
 * we model the replay cost of the paper's toolchain: pintool replay
 * proceeds at a few MIPS, each pinball pays a start-up cost, and
 * whole runs replay slightly slower per instruction than regional
 * ones (bigger footprints thrash the instrumentation caches).
 * Constants are calibrated to the paper's averages: 6,873.9B instrs
 * in 213.2h (whole) and 10.4B instrs in 17.17min (regional).
 */

#ifndef SPLAB_CORE_COSTMODEL_HH
#define SPLAB_CORE_COSTMODEL_HH

#include "support/types.hh"

namespace splab
{

/** Replay-cost model of the paper's toolchain. */
struct ReplayCostModel
{
    /** Effective whole-run replay rate (instructions/second). */
    double wholeRate = 8.96e6;
    /** Effective regional replay rate (instructions/second). */
    double regionalRate = 10.2e6;
    /** Fixed start-up cost per replayed pinball (seconds). */
    double pinballStartup = 2.0;

    /** Whole-run replay time for @p paperInstrs instructions. */
    double
    wholeSeconds(double paperInstrs) const
    {
        return pinballStartup + paperInstrs / wholeRate;
    }

    /** Regional replay time for @p regions pinballs totalling
     *  @p paperInstrs instructions. */
    double
    regionalSeconds(double paperInstrs, u64 regions) const
    {
        return static_cast<double>(regions) * pinballStartup +
               paperInstrs / regionalRate;
    }
};

} // namespace splab

#endif // SPLAB_CORE_COSTMODEL_HH
