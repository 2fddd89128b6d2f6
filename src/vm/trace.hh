/**
 * @file
 * Dynamic instruction records and trace plumbing.
 *
 * Everything in the repo — the dependence analyses of Section 2, the
 * cloaking predictors of Section 5, and the timing CPU of Section 5.6
 * — consumes the same dynamic instruction stream defined here.
 */

#ifndef RARPRED_VM_TRACE_HH_
#define RARPRED_VM_TRACE_HH_

#include <cstddef>
#include <cstdint>

#include "isa/instruction.hh"

namespace rarpred {

/**
 * One executed (architecturally committed) instruction.
 *
 * For loads, value holds the loaded word; for stores, the stored
 * word. eaddr is the 8-aligned effective byte address.
 */
struct DynInst
{
    uint64_t seq = 0;    ///< dynamic instruction number, from 0
    uint64_t pc = 0;     ///< byte PC
    uint64_t nextPc = 0; ///< byte PC of the next dynamic instruction
    Opcode op = Opcode::Nop;
    RegId dst = reg::kNone;
    RegId src1 = reg::kNone;
    RegId src2 = reg::kNone;
    uint64_t eaddr = 0; ///< effective address (memory ops only)
    uint64_t value = 0; ///< loaded/stored word (memory ops only)
    bool taken = false; ///< control transfer was taken

    bool isLoad() const { return rarpred::isLoad(op); }
    bool isStore() const { return rarpred::isStore(op); }
    bool isMem() const { return isLoad() || isStore(); }
    bool isControl() const { return rarpred::isControl(op); }
    bool isCondBranch() const { return rarpred::isCondBranch(op); }
    InstClass instClass() const { return classOf(op); }
    unsigned latency() const { return latencyOf(op); }
};

/**
 * Records per block in the batched pump (drainTraceBatched). 256
 * 56-byte DynInsts are a 14 KiB stack buffer: big enough to amortize
 * the two virtual calls per block, small enough to stay resident in
 * L1/L2 while the sink chews through it.
 */
inline constexpr size_t kTraceBatch = 256;

/** Push-style consumer of a dynamic instruction stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called once per committed instruction, in program order. */
    virtual void onInst(const DynInst &di) = 0;

    /**
     * Consume @p n instructions at once. Semantically identical to n
     * onInst() calls (the default does exactly that); sinks override
     * it to devirtualize and keep the block streaming through cache.
     */
    virtual void
    onBatch(const DynInst *batch, size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            onInst(batch[i]);
    }
};

/** Pull-style producer of a dynamic instruction stream. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next instruction in program order.
     * @return false when the stream is exhausted (di left untouched).
     */
    virtual bool next(DynInst &di) = 0;

    /**
     * Produce up to @p max instructions into @p out. Semantically
     * identical to repeated next() calls (the default is exactly
     * that); sources backed by contiguous storage override it to
     * decode a whole block per virtual call.
     * @return the number of records produced; 0 means exhausted.
     */
    virtual size_t
    nextBlock(DynInst *out, size_t max)
    {
        size_t n = 0;
        while (n < max && next(out[n]))
            ++n;
        return n;
    }
};

/**
 * Pump @p source dry into @p sink, one record at a time. This is the
 * straight-line reference pump: the hot path uses drainTraceBatched()
 * instead, and tests/test_hotpath_equiv.cc holds the two byte-
 * identical on every workload.
 * @return the number of instructions transferred.
 */
inline uint64_t
drainTrace(TraceSource &source, TraceSink &sink)
{
    DynInst di;
    uint64_t count = 0;
    while (source.next(di)) {
        sink.onInst(di);
        ++count;
    }
    return count;
}

/**
 * Pump @p source dry into @p sink in blocks of kTraceBatch records.
 * Record-for-record equivalent to drainTrace(); the batching only
 * changes call shape (two virtual calls per block) and data locality
 * (the block is decoded contiguously, then consumed contiguously).
 * @return the number of instructions transferred.
 */
inline uint64_t
drainTraceBatched(TraceSource &source, TraceSink &sink)
{
    DynInst block[kTraceBatch];
    uint64_t count = 0;
    while (size_t n = source.nextBlock(block, kTraceBatch)) {
        sink.onBatch(block, n);
        count += n;
    }
    return count;
}

} // namespace rarpred

#endif // RARPRED_VM_TRACE_HH_
