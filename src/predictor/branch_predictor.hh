/**
 * @file
 * Branch direction predictors and return address stack (Section 5.1:
 * a 64K-entry combined predictor with a 2-bit chooser selecting
 * between a 2-bit bimodal table and GSHARE, plus a 64-entry call
 * stack).
 */

#ifndef RARPRED_PREDICTOR_BRANCH_PREDICTOR_HH_
#define RARPRED_PREDICTOR_BRANCH_PREDICTOR_HH_

#include <cstdint>
#include <vector>

#include "common/bitutils.hh"
#include "common/sat_counter.hh"

namespace rarpred {

/** Classic 2-bit-counter bimodal predictor. */
class BimodalPredictor
{
  public:
    explicit BimodalPredictor(size_t entries);

    bool predict(uint64_t pc) const;
    void update(uint64_t pc, bool taken);

  private:
    size_t indexOf(uint64_t pc) const { return (pc >> 2) & mask_; }

    uint64_t mask_;
    std::vector<SatCounter> table_;
};

/** GSHARE: global history XOR PC indexes a 2-bit counter table. */
class GsharePredictor
{
  public:
    /**
     * @param entries Table size (power of two).
     * @param history_bits Global history length.
     */
    GsharePredictor(size_t entries, unsigned history_bits);

    bool predict(uint64_t pc) const;

    /** Update counter and shift @p taken into the global history. */
    void update(uint64_t pc, bool taken);

  private:
    size_t
    indexOf(uint64_t pc) const
    {
        return ((pc >> 2) ^ history_) & mask_;
    }

    uint64_t mask_;
    uint64_t historyMask_;
    uint64_t history_ = 0;
    std::vector<SatCounter> table_;
};

/**
 * Combined predictor: a 2-bit chooser per entry selects bimodal or
 * GSHARE; both components always train, the chooser trains toward
 * whichever component was correct.
 */
class CombinedPredictor
{
  public:
    /** @param entries Entries per table (paper total: 64K). */
    explicit CombinedPredictor(size_t entries = 16384,
                               unsigned history_bits = 12);

    bool predict(uint64_t pc) const;
    void update(uint64_t pc, bool taken);

    uint64_t lookups() const { return lookups_; }
    uint64_t correct() const { return correct_; }

    /** Convenience: predict, record accuracy, update. */
    bool
    predictAndUpdate(uint64_t pc, bool taken)
    {
        const bool p = predict(pc);
        ++lookups_;
        if (p == taken)
            ++correct_;
        update(pc, taken);
        return p == taken;
    }

  private:
    size_t indexOf(uint64_t pc) const { return (pc >> 2) & mask_; }

    uint64_t mask_;
    BimodalPredictor bimodal_;
    GsharePredictor gshare_;
    std::vector<SatCounter> chooser_; ///< MSB set -> use gshare
    uint64_t lookups_ = 0;
    uint64_t correct_ = 0;
};

/** 64-entry return address stack. */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(size_t depth = 64) : depth_(depth) {}

    void
    push(uint64_t return_pc)
    {
        if (stack_.size() >= depth_)
            stack_.erase(stack_.begin()); // overflow: drop the oldest
        stack_.push_back(return_pc);
    }

    /** @return predicted return target, or 0 when empty. */
    uint64_t
    pop()
    {
        if (stack_.empty())
            return 0;
        uint64_t top = stack_.back();
        stack_.pop_back();
        return top;
    }

    size_t size() const { return stack_.size(); }

  private:
    size_t depth_;
    std::vector<uint64_t> stack_;
};

} // namespace rarpred

#endif // RARPRED_PREDICTOR_BRANCH_PREDICTOR_HH_
