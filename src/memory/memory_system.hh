/**
 * @file
 * The full memory hierarchy of Section 5.1:
 *  - 32K / 16B-block / 2-way L1 data cache, 2-cycle hits
 *  - 64K / 16B-block / 2-way L1 instruction cache, 2-cycle hits
 *  - unified 4M / 128B-block / 8-way L2, 10-cycle hits
 *  - infinite main memory, 50-cycle miss latency (first word)
 *  - 32-block combining write buffers between L1/L2 and L2/memory,
 *    with load hits-on-miss.
 */

#ifndef RARPRED_MEMORY_MEMORY_SYSTEM_HH_
#define RARPRED_MEMORY_MEMORY_SYSTEM_HH_

#include <cstdint>

#include "memory/cache.hh"
#include "memory/write_buffer.hh"

namespace rarpred {

/** Hierarchy-level configuration. */
struct MemorySystemConfig
{
    CacheConfig l1d{"l1d", 32 * 1024, 16, 2, 2};
    CacheConfig l1i{"l1i", 64 * 1024, 16, 2, 2};
    CacheConfig l2{"l2", 4 * 1024 * 1024, 128, 8, 10};
    unsigned memLatency = 50;       ///< first-word main memory latency
    size_t writeBufferBlocks = 32;  ///< per buffer
};

/**
 * Latency-model view of the memory hierarchy used by the trace-driven
 * CPU: each access returns its total latency in cycles and updates
 * cache/buffer state.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemorySystemConfig &config);

    /** Demand data load at @p cycle. @return latency in cycles. */
    unsigned load(uint64_t addr, uint64_t cycle);

    /**
     * Data store at @p cycle.
     * @return cycles until the store has left the store queue (write
     *         buffers absorb misses; only a full buffer stalls).
     */
    unsigned store(uint64_t addr, uint64_t cycle);

    /** Instruction fetch of the block containing @p pc. */
    unsigned ifetch(uint64_t pc, uint64_t cycle);

    const Cache &l1d() const { return l1d_; }
    const Cache &l1i() const { return l1i_; }
    const Cache &l2() const { return l2_; }

  private:
    /** L2-and-below latency for a demand miss from an L1. */
    unsigned l2Access(uint64_t addr, uint64_t cycle, bool is_write);

    MemorySystemConfig config_;
    Cache l1d_;
    Cache l1i_;
    Cache l2_;
    WriteBuffer l1ToL2_;
    WriteBuffer l2ToMem_;
};

} // namespace rarpred

#endif // RARPRED_MEMORY_MEMORY_SYSTEM_HH_
