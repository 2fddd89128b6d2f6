/**
 * @file
 * Store-set memory dependence predictor (Chrysos & Emer, ISCA 1998 —
 * the paper's citation [5], whose incremental merge rule the DPNT
 * also borrows).
 *
 * Loads that have suffered memory-order violations are assigned to
 * the *store set* of the offending store; afterwards the load waits
 * for the last fetched store of its set instead of speculating past
 * it. Two tables:
 *  - SSIT: PC-indexed Store Set ID Table (loads and stores);
 *  - LFST: SSID-indexed Last Fetched Store Table (in-flight store).
 *
 * The paper's base processor uses naive speculation; store sets are
 * the natural "do better" extension and are exercised by
 * bench_ablation_memdep as an ablation of the base machine.
 */

#ifndef RARPRED_PREDICTOR_STORE_SETS_HH_
#define RARPRED_PREDICTOR_STORE_SETS_HH_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitutils.hh"

namespace rarpred {

class Rng;

/** The store-set predictor. */
class StoreSetPredictor
{
  public:
    /**
     * @param ssit_entries SSIT size (power of two; Chrysos & Emer use
     *        16K/64K).
     * @param lfst_entries LFST size (power of two; bounds live SSIDs).
     */
    StoreSetPredictor(size_t ssit_entries = 16384,
                      size_t lfst_entries = 4096);

    /**
     * A store is dispatched.
     * @return the sequence number of the previous in-flight store of
     *         its set (store-store ordering), if any.
     */
    std::optional<uint64_t> onStoreDispatch(uint64_t pc, uint64_t seq);

    /**
     * A load is dispatched.
     * @return the in-flight store it must wait for, if its set has
     *         one.
     */
    std::optional<uint64_t> onLoadDispatch(uint64_t pc);

    /** The store with @p seq left the window (committed). */
    void onStoreRetire(uint64_t pc, uint64_t seq);

    /**
     * A memory-order violation occurred between @p load_pc and
     * @p store_pc: assign them to a common store set, using the
     * value-biased incremental merge rule.
     */
    void onViolation(uint64_t load_pc, uint64_t store_pc);

    /** Clear all assignments (cyclic clearing in the original). */
    void clear();

    /**
     * Fault-injection hook (src/faultinject): flip one random bit in
     * a random SSIT or LFST slot. Store-set state only gates *when*
     * loads issue, never what they read, so any corruption here must
     * at worst cost performance (extra waits or extra violations).
     * @return true (these tables are direct-mapped and always exist).
     */
    bool injectFault(Rng &rng);

    uint64_t assignments() const { return assignments_; }
    uint64_t merges() const { return merges_; }

  private:
    static constexpr uint32_t kNoSsid = ~0u;
    static constexpr uint64_t kNoStore = ~0ull;

    size_t ssitIndex(uint64_t pc) const
    {
        return (pc >> 2) & (ssit_.size() - 1);
    }

    std::vector<uint32_t> ssit_;
    std::vector<uint64_t> lfst_;
    uint32_t nextSsid_ = 0;
    uint64_t assignments_ = 0;
    uint64_t merges_ = 0;
};

} // namespace rarpred

#endif // RARPRED_PREDICTOR_STORE_SETS_HH_
