/**
 * @file
 * Shared helpers for the experiment drivers in bench/.
 */

#ifndef RARPRED_BENCH_BENCH_UTIL_HH_
#define RARPRED_BENCH_BENCH_UTIL_HH_

#include <cstdint>
#include <cstdio>

#include "vm/micro_vm.hh"
#include "workload/workload.hh"

namespace rarpred::benchutil {

/**
 * Argument check for the benches that take none: with any argument,
 * print a one-line usage and return exit code 2; otherwise return 0.
 * A flag the bench would not read fails loudly instead of being
 * silently ignored.
 */
inline int
rejectArguments(int argc, char **argv)
{
    if (argc <= 1)
        return 0;
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
}

/** Execute @p w's program, feeding the trace to @p sink. */
inline uint64_t
runWorkload(const Workload &w, TraceSink &sink, uint32_t scale = 1,
            uint64_t max_insts = 100'000'000ull)
{
    Program prog = w.build(scale);
    MicroVM vm(prog);
    return vm.run(sink, max_insts);
}

} // namespace rarpred::benchutil

#endif // RARPRED_BENCH_BENCH_UTIL_HH_
