/**
 * @file
 * In-memory recorded execution traces.
 *
 * A RecordedTrace is the committed dynamic instruction stream of one
 * program run, packed into 32-byte records and immutable after
 * construction. It exists so that a sweep over N predictor
 * configurations replays one functional execution N times instead of
 * re-running the MicroVM N times, and so that many threads can replay
 * the same workload concurrently: replay only reads shared state, so
 * a `const RecordedTrace` is safe to share across threads without
 * locking (see src/driver/trace_cache.hh).
 *
 * Fidelity: replay reproduces every DynInst field the MicroVM emits.
 * The dynamic sequence number is not stored — MicroVM numbers
 * instructions 0,1,2,... so replay regenerates it from the record
 * index (asserted at record time).
 */

#ifndef RARPRED_VM_RECORDED_TRACE_HH_
#define RARPRED_VM_RECORDED_TRACE_HH_

#include <cstdint>
#include <vector>

#include "vm/trace.hh"

namespace rarpred {

class Program;

/**
 * One committed instruction, packed to 32 bytes (vs 56 for DynInst).
 * Byte PCs of MicroISA programs fit in 32 bits (program text is at
 * most a few thousand static instructions); effective addresses and
 * values keep the full 64 bits.
 */
struct PackedInst
{
    uint64_t eaddr;
    uint64_t value;
    uint32_t pc;
    uint32_t nextPc;
    uint8_t op;
    uint8_t dst;
    uint8_t src1;
    uint8_t src2;
    uint8_t taken;
    uint8_t pad_[3];
};

static_assert(sizeof(PackedInst) == 32, "packed record layout");

/** An immutable, replayable recording of one program execution. */
class RecordedTrace
{
  public:
    /**
     * Execute @p program on a fresh MicroVM and record up to
     * @p max_insts committed instructions.
     */
    static RecordedTrace record(const Program &program,
                                uint64_t max_insts = ~0ull);

    /** Record whatever @p source produces (tests, file replays). */
    static RecordedTrace record(TraceSource &source,
                                uint64_t max_insts = ~0ull);

    /** Number of recorded instructions. */
    size_t size() const { return insts_.size(); }
    bool empty() const { return insts_.empty(); }

    /** Reconstruct the @p i-th committed instruction. */
    DynInst decode(size_t i) const;

    /**
     * Decode records [@p first, @p first + n) into @p out, where n is
     * min(@p max, size() - first). One tight loop over contiguous
     * packed records — the hot path's block decoder.
     * @return n, the number of records decoded.
     */
    size_t decodeBlock(size_t first, DynInst *out, size_t max) const;

    /** Push the whole trace, in order, into @p sink. */
    void replayInto(TraceSink &sink) const;

    /**
     * In-memory footprint of the recording: the trace object header
     * plus the packed record storage. This is the figure the trace
     * cache charges against --trace-budget-bytes.
     */
    uint64_t
    memoryBytes() const
    {
        return sizeof(RecordedTrace) +
               insts_.capacity() * sizeof(PackedInst);
    }

  private:
    RecordedTrace() = default;

    std::vector<PackedInst> insts_;
};

/**
 * Pull-style replay cursor over a shared trace. Each job/thread owns
 * its own cursor; the underlying trace is never mutated.
 */
class RecordedTraceSource : public TraceSource
{
  public:
    /** @param trace Must outlive the source. */
    explicit RecordedTraceSource(const RecordedTrace &trace)
        : trace_(trace)
    {
    }

    bool
    next(DynInst &di) override
    {
        if (pos_ >= trace_.size())
            return false;
        di = trace_.decode(pos_++);
        return true;
    }

    size_t
    nextBlock(DynInst *out, size_t max) override
    {
        const size_t n = trace_.decodeBlock(pos_, out, max);
        pos_ += n;
        return n;
    }

    /** Restart replay from the beginning. */
    void rewind() { pos_ = 0; }

  private:
    const RecordedTrace &trace_;
    size_t pos_ = 0;
};

} // namespace rarpred

#endif // RARPRED_VM_RECORDED_TRACE_HH_
