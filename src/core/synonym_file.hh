/**
 * @file
 * Synonym File (SF): synonym-indexed speculative value storage.
 *
 * Producers (stores, and the earliest load of a RAR group) deposit
 * their value here under their synonym; predicted consumers read it
 * speculatively (Section 3.1, actions 3/4/6 of Figure 4). Entries are
 * allocated empty when a producer is predicted and marked full once
 * the producer's value is available.
 */

#ifndef RARPRED_CORE_SYNONYM_FILE_HH_
#define RARPRED_CORE_SYNONYM_FILE_HH_

#include <cstdint>

#include "common/hybrid_table.hh"
#include "common/rng.hh"
#include "core/dpnt.hh"

namespace rarpred {

/** One synonym file entry. */
struct SfEntry
{
    bool full = false;        ///< value has been produced
    uint64_t value = 0;       ///< the speculative value
    bool fromStore = false;   ///< producer was a store (RAW) vs load (RAR)
    uint64_t producerPc = 0;  ///< PC of the producing instruction
    uint64_t producerSeq = 0; ///< dynamic seq of the producer (timing)
};

/** The synonym file. */
class SynonymFile
{
  public:
    /** @param geometry entries==0 models an infinite SF. */
    explicit SynonymFile(TableGeometry geometry) : table_(geometry) {}

    /** Allocate an empty entry for @p synonym (producer predicted). */
    void
    allocate(Synonym synonym)
    {
        table_.insert(synonym, SfEntry{});
    }

    /**
     * Deposit a produced value, creating the entry when needed.
     * @param synonym The producer's synonym.
     * @param value The produced value.
     * @param from_store True when the producer is a store.
     * @param producer_pc PC of the producer.
     * @param producer_seq Dynamic sequence number of the producer,
     *        used by the timing model to locate its completion time.
     */
    void
    produce(Synonym synonym, uint64_t value, bool from_store,
            uint64_t producer_pc, uint64_t producer_seq = 0)
    {
        table_.insert(synonym, SfEntry{true, value, from_store,
                                       producer_pc, producer_seq});
    }

    /**
     * Consumer-side lookup.
     * @return the entry (full or not), or nullptr when absent.
     */
    SfEntry *
    consume(Synonym synonym)
    {
        return table_.touch(synonym);
    }

    /** Non-mutating lookup. */
    const SfEntry *peek(Synonym synonym) { return table_.find(synonym); }

    void clear() { table_.clear(); }

    /**
     * Fault-injection hook (src/faultinject): corrupt one random
     * field of one random entry. Flipping a bit of a stored value is
     * the most dangerous fault in the whole mechanism — a consumer
     * may read the corrupted word — so the verification load *must*
     * reject it; the speculation-safety oracle proves it does.
     * @return false when the file is empty (nothing to corrupt).
     */
    bool
    injectFault(Rng &rng)
    {
        if (table_.size() == 0)
            return false;
        const size_t victim = (size_t)rng.below(table_.size());
        bool injected = false;
        size_t i = 0;
        table_.forEach([&](uint64_t, SfEntry &e) {
            if (i++ != victim)
                return;
            switch (rng.below(4)) {
              case 0:
                e.value ^= 1ull << rng.below(64);
                break;
              case 1:
                e.full = !e.full;
                break;
              case 2:
                e.fromStore = !e.fromStore;
                break;
              default:
                e.producerPc ^= 1ull << rng.below(64);
                break;
            }
            injected = true;
        });
        return injected;
    }

    size_t size() const { return table_.size(); }

    /** Probe-path counters / fill of the underlying table. */
    ProbeStats probeStats() const { return table_.probeStats(); }

  private:
    HybridTable<SfEntry> table_;
};

} // namespace rarpred

#endif // RARPRED_CORE_SYNONYM_FILE_HH_
