/**
 * @file
 * Trace-driven out-of-order superscalar timing model.
 *
 * Consumes the committed instruction stream (the correct path) and
 * computes per-instruction fetch/dispatch/execute/commit cycles under
 * the Section 5.1 machine: 8-wide, 128-entry window, 5-cycle front
 * end, the paper's functional-unit latencies, a 128-entry load/store
 * scheduler with naive memory dependence speculation, the paper's
 * cache hierarchy, and the 64K-entry combined branch predictor.
 *
 * Cloaking/bypassing attaches per Section 5.6.1: predictions are made
 * at decode; a predicted consumer load's dependents are linked to the
 * producer's value (bypassing), so they may issue as soon as that
 * value exists; verification happens when the load's own memory
 * access completes. Misspeculation recovery is selective re-execution
 * or squash re-fetch. Branches never resolve on speculative inputs.
 *
 * Modelling simplifications (documented in DESIGN.md): no wrong-path
 * fetch effects beyond the redirect bubble, universal function units,
 * and DPNT training applied in trace order rather than at commit.
 */

#ifndef RARPRED_CPU_OOO_CPU_HH_
#define RARPRED_CPU_OOO_CPU_HH_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.hh"
#include "common/flat_table.hh"
#include "core/srt.hh"
#include "cpu/cpu_config.hh"
#include "predictor/branch_predictor.hh"
#include "predictor/store_sets.hh"
#include "vm/trace.hh"

namespace rarpred {

/** The timing model. */
class OooCpu final : public TraceSink
{
  public:
    OooCpu(const CpuConfig &config, const CloakTimingConfig &cloak);
    ~OooCpu() override;

    /** Feed the next committed instruction. */
    void onInst(const DynInst &di) override;

    /**
     * Batched feed: identical per-record semantics to onInst(), but
     * the virtual dispatch happens once per block instead of once per
     * record (the class is final, so the inner calls devirtualize).
     */
    void onBatch(const DynInst *batch, size_t n) override;

    /** @return statistics; cycles is the commit time of the last inst. */
    CpuStats stats() const;

    /** Underlying cloaking engine (null when cloaking is disabled). */
    CloakingEngine *cloakingEngine() { return engine_.get(); }

    /** Measured load/probe stats of the hot-path tables. */
    struct HotPathLoads
    {
        ProbeStats srt;
        ProbeStats fetchBw;
        ProbeStats issueBw;
        ProbeStats lsqBw;
        ProbeStats commitBw;
        size_t arenaReservedBytes = 0;
    };
    HotPathLoads hotPathLoads() const;

  private:
    /**
     * A width-limited resource: at most `width` events per cycle.
     * Accounting lives in a FlatMap: allocate() is a short linear
     * probe instead of an unordered_map node allocation, and prune()
     * leaves tombstones that the map purges in place (same prune
     * cadence and floor as ever — allocation results are identical).
     */
    /**
     * Per-resource width accounting over cycles.
     *
     * Cycle keys are dense and near-monotone and prune() discards
     * everything below a trailing floor, so the counts live in a
     * power-of-two ring of per-cycle counters indexed by
     * `cycle & mask` over [base_, base_ + capacity): allocate() is a
     * bounds check plus one counter increment, with no hashing,
     * probing or tombstones, and prune() is a sequential zeroing of
     * the vacated range. The rare request below base_ (possible only
     * right after a prune) falls through to an exact FlatMap so
     * allocate() results and size() stay identical to a plain map.
     */
    class BandwidthLimiter
    {
      public:
        explicit BandwidthLimiter(unsigned width) : width_(width) {}

        /** @return the first cycle >= request with a free slot. */
        uint64_t
        allocate(uint64_t request)
        {
            ++lookups_;
            if (request < base_) [[unlikely]] {
                for (uint64_t cycle = request; cycle < base_; ++cycle) {
                    unsigned &count = low_.findOrInsert(cycle, 0);
                    if (count < width_) {
                        ++count;
                        return noteProbe(request, cycle);
                    }
                }
                return ringAllocate(request, base_);
            }
            return ringAllocate(request, request);
        }

        /** Forget accounting for cycles below @p floor. */
        void
        prune(uint64_t floor)
        {
            low_.eraseIf(
                [floor](uint64_t cycle, unsigned) { return cycle < floor; });
            if (floor <= base_ || counts_.empty()) {
                base_ = std::max(base_, floor);
                return;
            }
            const uint64_t end = top_ < floor ? top_ + 1 : floor;
            for (uint64_t cycle = base_; cycle < end; ++cycle) {
                uint32_t &count = counts_[cycle & mask_];
                live_ -= (count != 0);
                count = 0;
            }
            base_ = floor;
        }

        size_t size() const { return low_.size() + live_; }

        /** Probe-path counters / fill of the accounting window. */
        ProbeStats
        probeStats() const
        {
            return {lookups_, probes_,           maxProbe_,
                    resizes_, low_.size() + live_, counts_.size()};
        }

      private:
        uint64_t
        ringAllocate(uint64_t request, uint64_t cycle)
        {
            while (true) {
                if (cycle - base_ >= counts_.size()) [[unlikely]]
                    growTo(cycle);
                uint32_t &count = counts_[cycle & mask_];
                if (count < width_) {
                    live_ += (count == 0);
                    ++count;
                    if (cycle > top_)
                        top_ = cycle;
                    return noteProbe(request, cycle);
                }
                ++cycle;
            }
        }

        uint64_t
        noteProbe(uint64_t request, uint64_t cycle)
        {
            const uint64_t len = cycle - request + 1;
            probes_ += len;
            if (len > maxProbe_)
                maxProbe_ = len;
            return cycle;
        }

        /** Widen the window so @p cycle is representable. */
        void
        growTo(uint64_t cycle)
        {
            const uint64_t span = cycle - base_ + 1;
            size_t cap = counts_.empty() ? size_t{1} << 13 : counts_.size();
            while (cap < span * 2)
                cap <<= 1;
            std::vector<uint32_t> next(cap, 0);
            const uint64_t nmask = cap - 1;
            if (!counts_.empty())
                for (uint64_t c = base_; c <= top_; ++c)
                    next[c & nmask] = counts_[c & mask_];
            counts_ = std::move(next);
            mask_ = nmask;
            ++resizes_;
        }

        unsigned width_;
        std::vector<uint32_t> counts_; ///< pow-2 ring of per-cycle counts
        uint64_t mask_ = 0;
        uint64_t base_ = 0; ///< lowest cycle the ring represents
        uint64_t top_ = 0;  ///< highest cycle ever counted
        size_t live_ = 0;   ///< nonzero ring slots
        FlatMap<unsigned> low_; ///< exact counts below base_ (rare)
        uint64_t lookups_ = 0;
        uint64_t probes_ = 0;
        uint64_t maxProbe_ = 0;
        uint64_t resizes_ = 0;
    };

    /**
     * Width accounting for a strictly front-running request stream.
     *
     * Fetch and commit feed each allocation back into the next
     * request (request >= the previous result), so counts below the
     * newest allocated cycle can never be consulted again and the
     * whole map collapses to (cycle, count-at-cycle) — two words, no
     * ring, nothing to prune. The monotonicity contract is asserted
     * on every call: a violating caller panics instead of silently
     * diverging from the map semantics.
     */
    class MonotoneBandwidthLimiter
    {
      public:
        explicit MonotoneBandwidthLimiter(unsigned width)
            : width_(width)
        {
        }

        /** @return the first cycle >= request with a free slot. */
        uint64_t
        allocate(uint64_t request)
        {
            ++lookups_;
            rarpred_assert(request >= cycle_);
            if (request > cycle_) {
                cycle_ = request;
                count_ = 1;
                probes_ += 1;
                return request;
            }
            uint64_t len = 1;
            if (count_ < width_) {
                ++count_;
            } else { // cycle saturated: step to the next one
                ++cycle_;
                count_ = 1;
                len = 2;
            }
            probes_ += len;
            if (len > maxProbe_)
                maxProbe_ = len;
            return cycle_;
        }

        /** Nothing below cycle_ is reachable; nothing to forget. */
        void prune(uint64_t) {}

        size_t size() const { return count_ != 0 ? 1 : 0; }

        ProbeStats
        probeStats() const
        {
            return {lookups_, probes_, maxProbe_, 0, size(), size_t{1}};
        }

      private:
        unsigned width_;
        uint64_t cycle_ = 0; ///< newest allocated cycle
        uint32_t count_ = 0; ///< allocations at cycle_
        uint64_t lookups_ = 0;
        uint64_t probes_ = 0;
        uint64_t maxProbe_ = 0;
    };

    /** An in-flight store tracked by the load/store scheduler. */
    struct StoreRecord
    {
        uint64_t seq;
        uint64_t pc;
        uint64_t addr;
        uint64_t addrReady;     ///< cycle its address is known
        uint64_t dataReadySpec; ///< data available (speculative chain)
        uint64_t dataReadyArch; ///< data verified
    };

    /** @return the in-flight store with @p seq, or nullptr. */
    const StoreRecord *findStoreBySeq(uint64_t seq) const;

    /** Speculative/verified completion pair for a load. */
    struct LoadTiming
    {
        uint64_t spec;
        uint64_t arch;
    };

    uint64_t handleFetch(const DynInst &di);
    void handleControl(const DynInst &di, uint64_t resolve_cycle);
    LoadTiming loadCompleteCycle(const DynInst &di, uint64_t sched);
    /** @return cycle a past instruction's value exists (0 if ancient). */
    uint64_t valueTimeOf(uint64_t seq) const;
    /** @return commit cycle of a past instruction (0 if ancient). */
    uint64_t commitTimeOf(uint64_t seq) const;
    void recordValueTime(uint64_t seq, uint64_t cycle);
    void recordCommitTime(uint64_t seq, uint64_t cycle);
    /**
     * When a predicted consumer uses a cloaked value, compute the
     * cycle the value exists: through the SRT if the producer is
     * still in flight at @p dispatch (bypassing, Figure 1(b)), or
     * from the Synonym File if it has committed.
     */
    uint64_t speculativeValueTime(const LoadOutcome &outcome,
                                  uint64_t dispatch);
    void pruneBandwidth();

    CpuConfig config_;
    CloakTimingConfig cloakConfig_;
    /**
     * Arena backing all per-instruction dynamic state: the commit
     * ring, the in-flight store queue, and the value/commit
     * completion rings. Carved once at construction; the steady-state
     * simulate loop never allocates.
     */
    Arena arena_;
    std::unique_ptr<CloakingEngine> engine_;
    MemorySystem memory_;
    CombinedPredictor branchPredictor_;
    ReturnAddressStack ras_;

    // Register scoreboard: value availability for consumers (spec may
    // be earlier than arch when a cloaked value was used).
    uint64_t specReady_[reg::kNumRegs] = {};
    uint64_t archReady_[reg::kNumRegs] = {};

    // Front end state.
    uint64_t fetchRedirect_ = 0; ///< earliest fetch cycle (mispredicts)
    MonotoneBandwidthLimiter fetchBw_;
    BandwidthLimiter issueBw_;
    BandwidthLimiter lsqBw_;
    MonotoneBandwidthLimiter commitBw_;

    // Window occupancy: commit cycles of the last windowSize insts.
    ArenaRing<uint64_t> commitRing_;
    uint64_t lastCommit_ = 0;

    // In-flight stores (bounded by the LSQ size).
    ArenaRing<StoreRecord> storeQueue_;
    /** Prefix-max of store address-ready times (conservative mode). */
    uint64_t storeAddrReadyMax_ = 0;
    /**
     * addr -> ordinal of the youngest in-queue store to that word
     * (ordinal - storesPopped_ = position in storeQueue_), so the
     * per-load conflict probe is one map lookup instead of a reverse
     * scan of the queue. When the mapped store leaves the queue every
     * older same-address store is already gone (the queue is FIFO), so
     * a missing key exactly means "no prior store to this word".
     */
    FlatMap<uint64_t> storeByAddr_;
    uint64_t storesPopped_ = 0; ///< ordinal of storeQueue_'s front

    // Completion and commit times of recent instructions, by seq;
    // arena-backed arrays of kValueRing entries each.
    static constexpr size_t kValueRing = 1 << 15;
    uint64_t *valueTime_ = nullptr;
    uint64_t *valueSeq_ = nullptr;
    uint64_t *commitTime_ = nullptr;
    uint64_t *commitSeq_ = nullptr;

    /** The bypassing structure: synonym -> in-flight producer. */
    SynonymRenameTable srt_;

    /** Memory dependence predictor (MemDepPolicy::StoreSets). */
    StoreSetPredictor storeSets_;

    CpuStats stats_;
    uint64_t lastFetch_ = 0;
    uint64_t lastFetchBlock_ = ~0ull;
    uint64_t pruneCounter_ = 0;
};

} // namespace rarpred

#endif // RARPRED_CPU_OOO_CPU_HH_
