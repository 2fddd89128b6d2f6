/**
 * @file
 * Functional MicroISA virtual machine.
 *
 * Executes a Program over a flat word-addressed memory image and
 * emits the committed dynamic instruction stream. Plays the role the
 * functional MIPS-I simulator played for the paper: the reference
 * executor whose trace drives all analyses and the timing model.
 */

#ifndef RARPRED_VM_MICRO_VM_HH_
#define RARPRED_VM_MICRO_VM_HH_

#include <cstdint>
#include <vector>

#include "isa/program.hh"
#include "vm/trace.hh"

namespace rarpred {

/** Functional executor producing the architectural trace. */
class MicroVM : public TraceSource
{
  public:
    /**
     * @param program The program to execute; must outlive the VM.
     *
     * The stack pointer (reg::kSp) is initialized to the top of the
     * data memory (full-descending stack).
     */
    explicit MicroVM(const Program &program);

    /**
     * Execute one instruction.
     * @param di Filled with the committed instruction record.
     * @return false if the VM has halted (nothing executed).
     */
    bool next(DynInst &di) override;

    /**
     * Run until halt or until @p max_insts further instructions have
     * committed, pushing each into @p sink.
     * @return the number of instructions executed by this call.
     */
    uint64_t run(TraceSink &sink, uint64_t max_insts = ~0ull);

    /** Run without observing the trace. @return instructions executed. */
    uint64_t run(uint64_t max_insts = ~0ull);

    /** @return true once Halt has executed (or pc fell off the code). */
    bool halted() const { return halted_; }

    /** @return total committed instruction count. */
    uint64_t instCount() const { return seq_; }

    /** @return current value of an integer or fp register. */
    uint64_t readReg(RegId r) const;

    /** @return the 8-byte word at @p addr (must be aligned, in range). */
    uint64_t readWord(uint64_t addr) const;

    /** Overwrite the 8-byte word at @p addr. */
    void writeWord(uint64_t addr, uint64_t value);

    /** @return data memory size in bytes. */
    uint64_t memBytes() const { return memWords_.size() * 8; }

  private:
    uint64_t regRead(RegId r) const;
    void regWrite(RegId r, uint64_t v);

    const Program &program_;
    std::vector<uint64_t> memWords_;
    uint64_t regs_[reg::kNumRegs];
    uint64_t pcIndex_ = 0; ///< static instruction index, not byte PC
    uint64_t seq_ = 0;
    bool halted_ = false;
};

} // namespace rarpred

#endif // RARPRED_VM_MICRO_VM_HH_
