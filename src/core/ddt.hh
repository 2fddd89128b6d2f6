/**
 * @file
 * Dependence Detection Table (DDT).
 *
 * The DDT is an address-indexed cache recording which instruction
 * last touched each (word-granular) address; it is the mechanism both
 * RAW-based and RAR-based cloaking use to *detect* dependences at
 * commit time (Section 3.1 and [15]).
 *
 * Recording rules (Section 3.1):
 *  - A store records its PC at the address, displacing any load
 *    record (the store becomes the producer for later RAW sinks).
 *  - A load is recorded only when (a) no preceding store is recorded
 *    for the address, and (b) no other load is recorded for the
 *    address — this annotates the earliest-in-program-order load as
 *    the RAR producer.
 *
 * The table is finite with LRU replacement; its size bounds how far
 * back dependences can be detected (Figure 5 sweeps it 32..2K).
 * The paper also discusses using *separate* DDTs for loads and for
 * stores, which removes the anomaly of stores being evicted by loads
 * (Section 5.6.2); DdtConfig::separateTables enables that variant.
 */

#ifndef RARPRED_CORE_DDT_HH_
#define RARPRED_CORE_DDT_HH_

#include <cstdint>
#include <optional>

#include "common/flat_table.hh"
#include "core/dependence.hh"

namespace rarpred {

class Rng;

/** Configuration of a DependenceDetector. */
struct DdtConfig
{
    /** Entry count (unique addresses tracked); 0 = unbounded. */
    size_t entries = 128;

    /** Track loads (enables RAR detection). */
    bool trackLoads = true;

    /** Track stores (enables RAW detection). */
    bool trackStores = true;

    /**
     * Use one table for stores and one for loads, each of `entries`
     * entries, instead of a single shared table.
     */
    bool separateTables = false;

    /** log2 of the detection granularity in bytes (3 = 8-byte word). */
    unsigned granularityLog2 = 3;
};

/**
 * Detects RAW and RAR memory dependences from the committed
 * instruction stream.
 */
class DependenceDetector
{
  public:
    explicit DependenceDetector(const DdtConfig &config);

    /**
     * Observe a committed store.
     *
     * The store displaces any recorded load for the address (or, with
     * separate tables, invalidates the load-table entry) so that later
     * loads see a RAW, not a stale RAR, producer.
     */
    void onStore(uint64_t pc, uint64_t addr);

    /**
     * Observe a committed load.
     * @return the dependence this load's access detects, if any:
     *         RAW when a store is recorded for the address, RAR when
     *         an earlier load is recorded.
     */
    std::optional<Dependence> onLoad(uint64_t pc, uint64_t addr);

    /** Forget everything. */
    void clear();

    /**
     * Fault-injection hook (src/faultinject): flip one random bit of
     * one random entry's payload. DDT contents are performance-only —
     * a corrupted producer PC may train a bogus synonym, but the
     * cloaking verification load must still catch any wrong value.
     * @return false when the table is empty (nothing to corrupt).
     */
    bool injectFault(Rng &rng);

    /**
     * Probe-path counters of the shared (or store) table; with
     * separateTables the load table's counters are reported
     * separately by loadProbeStats().
     */
    ProbeStats probeStats() const { return table_.probeStats(); }
    ProbeStats loadProbeStats() const { return loadTable_.probeStats(); }

    const DdtConfig &config() const { return config_; }

  private:
    /** What occupies a tracked address. */
    struct Entry
    {
        bool isStore = false;
        uint64_t pc = 0;
    };

    uint64_t lineOf(uint64_t addr) const
    {
        return addr >> config_.granularityLog2;
    }

    DdtConfig config_;
    /** Shared table, or the store table when separateTables. */
    FlatLruTable<Entry> table_;
    /** Load table, used only when separateTables. */
    FlatLruTable<Entry> loadTable_;
};

} // namespace rarpred

#endif // RARPRED_CORE_DDT_HH_
