/**
 * @file
 * Synonym Rename Table (SRT) — the bypassing half of the mechanism
 * (Sections 3.2 and 5.6.1).
 *
 * At decode, an instruction predicted as a producer associates its
 * synonym with the location of the value it will produce (in a real
 * pipeline, the physical register tag; in this trace-driven model,
 * the producer's dynamic sequence number). A predicted consumer
 * inspects the SRT and the Synonym File in parallel: an SRT hit means
 * the producer has not committed yet and the value flows directly
 * from its (future) register — the speculative DEF->USE link of
 * Figure 1(b) — while an SRT miss means the value has retired into
 * the Synonym File.
 */

#ifndef RARPRED_CORE_SRT_HH_
#define RARPRED_CORE_SRT_HH_

#include <cstdint>
#include <optional>

#include "common/hybrid_table.hh"
#include "core/dpnt.hh"

namespace rarpred {

/** The synonym rename table. */
class SynonymRenameTable
{
  public:
    /**
     * @param geometry Capacity; the paper sizes it with the window
     *        (in-flight producers only). entries==0 is unbounded.
     */
    explicit SynonymRenameTable(TableGeometry geometry = {128, 0})
        : table_(geometry)
    {}

    /**
     * A predicted producer entered the window: its synonym now names
     * the in-flight value. The newest producer wins, as renaming
     * does.
     */
    void
    rename(Synonym synonym, uint64_t producer_seq)
    {
        table_.insert(synonym, producer_seq);
        ++renames_;
    }

    /**
     * Consumer-side inspection at decode.
     * @return the in-flight producer's sequence number, or nullopt
     *         when the synonym has retired to the Synonym File.
     */
    std::optional<uint64_t>
    lookup(Synonym synonym)
    {
        uint64_t *seq = table_.touch(synonym);
        if (!seq)
            return std::nullopt;
        return *seq;
    }

    /**
     * The producer with @p producer_seq committed: its value now
     * lives in the Synonym File, so drop the rename — unless a newer
     * producer has already renamed the synonym.
     */
    void
    retire(Synonym synonym, uint64_t producer_seq)
    {
        uint64_t *seq = table_.find(synonym);
        if (seq && *seq == producer_seq)
            table_.erase(synonym);
    }

    size_t size() const { return table_.size(); }
    uint64_t renames() const { return renames_; }

    void clear() { table_.clear(); }

    /** Probe-path counters / fill of the underlying table. */
    ProbeStats probeStats() const { return table_.probeStats(); }

  private:
    HybridTable<uint64_t> table_;
    uint64_t renames_ = 0;
};

} // namespace rarpred

#endif // RARPRED_CORE_SRT_HH_
