/**
 * @file
 * Combining write buffer between cache levels (Section 5.1: 32-block
 * buffers between L1 and L2 and between L2 and memory, with write
 * combining and load hits-on-miss).
 */

#ifndef RARPRED_MEMORY_WRITE_BUFFER_HH_
#define RARPRED_MEMORY_WRITE_BUFFER_HH_

#include <cstdint>
#include <vector>

#include "common/bitutils.hh"
#include "common/stats.hh"

namespace rarpred {

/**
 * A combining write buffer.
 *
 * Entries hold block addresses with a drain-complete timestamp; a
 * store to a block already buffered combines with it. Loads probe the
 * buffer (hit-on-miss support). The buffer drains one block per
 * drainLatency cycles; when full, a new store stalls until the oldest
 * entry drains.
 *
 * Entries live in a ring over storage allocated once at construction
 * (the deque this replaced allocated chunk blocks in steady state;
 * the hot loop must not touch the heap).
 */
class WriteBuffer
{
  public:
    /**
     * @param capacity Blocks buffered (paper: 32).
     * @param block_bytes Block size of the downstream level.
     * @param drain_latency Cycles to retire one block downstream.
     */
    WriteBuffer(size_t capacity, uint64_t block_bytes,
                unsigned drain_latency)
        : capacity_(capacity), blockBits_(floorLog2(block_bytes)),
          drainLatency_(drain_latency)
    {
        size_t slots = 1;
        while (slots < capacity_)
            slots <<= 1;
        ring_.assign(slots, Entry{});
        mask_ = slots - 1;
    }

    /**
     * Insert a block write at @p cycle.
     * @return the cycle at which the store can be considered complete
     *         (equals @p cycle unless the buffer was full).
     */
    uint64_t
    push(uint64_t addr, uint64_t cycle)
    {
        const uint64_t block = addr >> blockBits_;
        drainUpTo(cycle);
        for (size_t i = 0; i < size_; ++i) {
            if (at(i).block == block) {
                ++combines_;
                return cycle; // write combining
            }
        }
        uint64_t ready = cycle;
        if (size_ >= capacity_) {
            // Stall until the oldest entry finishes draining.
            ready = at(0).drainDone;
            drainUpTo(ready);
            ++fullStalls_;
        }
        const uint64_t start =
            size_ == 0 ? ready : at(size_ - 1).drainDone;
        ring_[(head_ + size_) & mask_] = {block, start + drainLatency_};
        ++size_;
        return ready;
    }

    /** @return true when @p addr's block is buffered at @p cycle. */
    bool
    contains(uint64_t addr, uint64_t cycle)
    {
        drainUpTo(cycle);
        const uint64_t block = addr >> blockBits_;
        for (size_t i = 0; i < size_; ++i)
            if (at(i).block == block)
                return true;
        return false;
    }

    size_t occupancy() const { return size_; }
    uint64_t combines() const { return combines_.value(); }
    uint64_t fullStalls() const { return fullStalls_.value(); }

  private:
    struct Entry
    {
        uint64_t block;
        uint64_t drainDone;
    };

    Entry &at(size_t i) { return ring_[(head_ + i) & mask_]; }
    const Entry &at(size_t i) const { return ring_[(head_ + i) & mask_]; }

    void
    drainUpTo(uint64_t cycle)
    {
        while (size_ > 0 && at(0).drainDone <= cycle) {
            head_ = (head_ + 1) & mask_;
            --size_;
        }
    }

    size_t capacity_;
    unsigned blockBits_;
    unsigned drainLatency_;
    std::vector<Entry> ring_;
    size_t mask_ = 0;
    size_t head_ = 0;
    size_t size_ = 0;
    Counter combines_;
    Counter fullStalls_;
};

} // namespace rarpred

#endif // RARPRED_MEMORY_WRITE_BUFFER_HH_
