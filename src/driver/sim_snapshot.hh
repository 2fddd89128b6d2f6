/**
 * @file
 * Compatibility forwarder: pumpSimulation() is drainTraceBatched().
 *
 * Every simulation cell runs through the one batched pump in
 * vm/trace.hh. This header remains only because perfbench/sweeps.cc
 * still includes it and calls driver::pumpSimulation(); new code calls
 * drainTraceBatched() directly. Delete it once perfbench moves off it.
 */

#ifndef RARPRED_DRIVER_SIM_SNAPSHOT_HH_
#define RARPRED_DRIVER_SIM_SNAPSHOT_HH_

#include <cstdint>

#include "vm/trace.hh"

namespace rarpred::driver {

/** @return drainTraceBatched(@p source, @p sink). */
inline uint64_t
pumpSimulation(TraceSource &source, TraceSink &sink)
{
    return drainTraceBatched(source, sink);
}

} // namespace rarpred::driver

#endif // RARPRED_DRIVER_SIM_SNAPSHOT_HH_
