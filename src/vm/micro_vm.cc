#include "vm/micro_vm.hh"

#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace rarpred {

namespace {

double
asDouble(uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

uint64_t
asBits(double d)
{
    return std::bit_cast<uint64_t>(d);
}

} // namespace

MicroVM::MicroVM(const Program &program)
    : program_(program), memWords_(program.memBytes() / 8, 0)
{
    std::memset(regs_, 0, sizeof(regs_));
    regs_[reg::kSp] = program.memBytes();
    for (const auto &dw : program.initialData())
        writeWord(dw.addr, dw.value);
}

uint64_t
MicroVM::regRead(RegId r) const
{
    rarpred_assert(r < reg::kNumRegs);
    return r == reg::kZero ? 0 : regs_[r];
}

void
MicroVM::regWrite(RegId r, uint64_t v)
{
    rarpred_assert(r < reg::kNumRegs);
    if (r != reg::kZero)
        regs_[r] = v;
}

uint64_t
MicroVM::readReg(RegId r) const
{
    return regRead(r);
}

uint64_t
MicroVM::readWord(uint64_t addr) const
{
    rarpred_assert(addr % 8 == 0 && addr / 8 < memWords_.size());
    return memWords_[addr / 8];
}

void
MicroVM::writeWord(uint64_t addr, uint64_t value)
{
    rarpred_assert(addr % 8 == 0 && addr / 8 < memWords_.size());
    memWords_[addr / 8] = value;
}

bool
MicroVM::next(DynInst &di)
{
    if (halted_)
        return false;
    if (pcIndex_ >= program_.code().size()) {
        halted_ = true;
        return false;
    }

    const Instruction &inst = program_.code()[pcIndex_];
    di = DynInst{};
    di.seq = seq_;
    di.pc = pcOfIndex(pcIndex_);
    di.op = inst.op;
    di.dst = inst.dst;
    di.src1 = inst.src1;
    di.src2 = inst.src2;

    uint64_t next_index = pcIndex_ + 1;

    switch (inst.op) {
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        halted_ = true;
        break;

      case Opcode::Add:
        regWrite(inst.dst, regRead(inst.src1) + regRead(inst.src2));
        break;
      case Opcode::Sub:
        regWrite(inst.dst, regRead(inst.src1) - regRead(inst.src2));
        break;
      case Opcode::Mul:
        regWrite(inst.dst, regRead(inst.src1) * regRead(inst.src2));
        break;
      case Opcode::Div: {
        uint64_t den = regRead(inst.src2);
        regWrite(inst.dst, den == 0 ? 0 : (uint64_t)((int64_t)regRead(
                                              inst.src1) / (int64_t)den));
        break;
      }
      case Opcode::And:
        regWrite(inst.dst, regRead(inst.src1) & regRead(inst.src2));
        break;
      case Opcode::Or:
        regWrite(inst.dst, regRead(inst.src1) | regRead(inst.src2));
        break;
      case Opcode::Xor:
        regWrite(inst.dst, regRead(inst.src1) ^ regRead(inst.src2));
        break;
      case Opcode::Sll:
        regWrite(inst.dst, regRead(inst.src1) << (regRead(inst.src2) & 63));
        break;
      case Opcode::Srl:
        regWrite(inst.dst, regRead(inst.src1) >> (regRead(inst.src2) & 63));
        break;
      case Opcode::Slt:
        regWrite(inst.dst, (int64_t)regRead(inst.src1) <
                                   (int64_t)regRead(inst.src2)
                               ? 1
                               : 0);
        break;
      case Opcode::Addi:
        regWrite(inst.dst, regRead(inst.src1) + (uint64_t)inst.imm);
        break;
      case Opcode::Andi:
        regWrite(inst.dst, regRead(inst.src1) & (uint64_t)inst.imm);
        break;
      case Opcode::Ori:
        regWrite(inst.dst, regRead(inst.src1) | (uint64_t)inst.imm);
        break;
      case Opcode::Slti:
        regWrite(inst.dst,
                 (int64_t)regRead(inst.src1) < inst.imm ? 1 : 0);
        break;
      case Opcode::Slli:
        regWrite(inst.dst, regRead(inst.src1) << (inst.imm & 63));
        break;
      case Opcode::Srli:
        regWrite(inst.dst, regRead(inst.src1) >> (inst.imm & 63));
        break;
      case Opcode::Li:
        regWrite(inst.dst, (uint64_t)inst.imm);
        break;
      case Opcode::Mov:
      case Opcode::Fmov:
        regWrite(inst.dst, regRead(inst.src1));
        break;

      case Opcode::Lw:
      case Opcode::Lf:
        di.eaddr = regRead(inst.src1) + (uint64_t)inst.imm;
        di.value = readWord(di.eaddr);
        regWrite(inst.dst, di.value);
        break;
      case Opcode::Sw:
      case Opcode::Sf:
        di.eaddr = regRead(inst.src1) + (uint64_t)inst.imm;
        di.value = regRead(inst.src2);
        writeWord(di.eaddr, di.value);
        break;

      case Opcode::FaddS:
      case Opcode::FaddD:
        regWrite(inst.dst, asBits(asDouble(regRead(inst.src1)) +
                                  asDouble(regRead(inst.src2))));
        break;
      case Opcode::FsubS:
      case Opcode::FsubD:
        regWrite(inst.dst, asBits(asDouble(regRead(inst.src1)) -
                                  asDouble(regRead(inst.src2))));
        break;
      case Opcode::FmulS:
      case Opcode::FmulD:
        regWrite(inst.dst, asBits(asDouble(regRead(inst.src1)) *
                                  asDouble(regRead(inst.src2))));
        break;
      case Opcode::FdivS:
      case Opcode::FdivD: {
        double den = asDouble(regRead(inst.src2));
        regWrite(inst.dst,
                 asBits(den == 0.0 ? 0.0
                                   : asDouble(regRead(inst.src1)) / den));
        break;
      }
      case Opcode::FcmpS:
      case Opcode::FcmpD:
        regWrite(inst.dst, asDouble(regRead(inst.src1)) <
                                   asDouble(regRead(inst.src2))
                               ? 1
                               : 0);
        break;
      case Opcode::Fcvt:
        regWrite(inst.dst, asBits((double)(int64_t)regRead(inst.src1)));
        break;

      case Opcode::Beq:
        di.taken = regRead(inst.src1) == regRead(inst.src2);
        if (di.taken)
            next_index = inst.target;
        break;
      case Opcode::Bne:
        di.taken = regRead(inst.src1) != regRead(inst.src2);
        if (di.taken)
            next_index = inst.target;
        break;
      case Opcode::Blt:
        di.taken =
            (int64_t)regRead(inst.src1) < (int64_t)regRead(inst.src2);
        if (di.taken)
            next_index = inst.target;
        break;
      case Opcode::Bge:
        di.taken =
            (int64_t)regRead(inst.src1) >= (int64_t)regRead(inst.src2);
        if (di.taken)
            next_index = inst.target;
        break;
      case Opcode::Jump:
        di.taken = true;
        next_index = inst.target;
        break;
      case Opcode::Call:
        di.taken = true;
        regWrite(reg::kRa, pcOfIndex(pcIndex_ + 1));
        next_index = inst.target;
        break;
      case Opcode::Ret:
        di.taken = true;
        next_index = indexOfPc(regRead(inst.src1));
        break;
    }

    pcIndex_ = next_index;
    di.nextPc = pcOfIndex(pcIndex_);
    ++seq_;
    return true;
}

uint64_t
MicroVM::run(TraceSink &sink, uint64_t max_insts)
{
    DynInst di;
    uint64_t n = 0;
    while (n < max_insts && next(di)) {
        sink.onInst(di);
        ++n;
    }
    return n;
}

uint64_t
MicroVM::run(uint64_t max_insts)
{
    DynInst di;
    uint64_t n = 0;
    while (n < max_insts && next(di))
        ++n;
    return n;
}

} // namespace rarpred
