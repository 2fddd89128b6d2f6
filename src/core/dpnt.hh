/**
 * @file
 * Dependence Prediction and Naming Table (DPNT).
 *
 * PC-indexed table associating static instructions with synonyms — the
 * new name space through which cloaked values flow (Section 3.1). Each
 * entry carries two predictors, one for the producer role and one for
 * the consumer role, because a load can be both (e.g., the RAW sink of
 * a store and simultaneously the RAR source for later loads).
 *
 * Two confidence mechanisms from Section 5.3:
 *  - 1-bit non-adaptive: predict always once the role was ever
 *    detected (a rough upper bound on coverage);
 *  - 2-bit adaptive automaton: predicts as soon as a dependence is
 *    detected, but after a misprediction requires two correct
 *    (shadow) predictions before a speculative value may be used
 *    again.
 *
 * Two synonym merge policies from Section 5.1, used when a dependence
 * is detected between instructions that already carry different
 * synonyms:
 *  - FullMerge: replace every DPNT instance of the losing synonym
 *    (associative scan, as in the original cloaking proposal [15]);
 *  - Incremental (Chrysos & Emer [5]): replace only the larger-valued
 *    synonym and only for the instruction at hand; the value bias
 *    makes all members converge to the smallest synonym over time.
 */

#ifndef RARPRED_CORE_DPNT_HH_
#define RARPRED_CORE_DPNT_HH_

#include <cstdint>

#include "common/hybrid_table.hh"
#include "common/sat_counter.hh"
#include "core/dependence.hh"

namespace rarpred {

class Rng;

/** A value name in the cloaking name space. 0 means "none". */
using Synonym = uint64_t;

constexpr Synonym kNoSynonym = 0;

/** Confidence mechanism selection (Section 5.3). */
enum class ConfidenceKind : uint8_t
{
    OneBitNonAdaptive,
    TwoBitAdaptive,
};

/** Synonym merge policy selection (Section 5.1). */
enum class MergePolicy : uint8_t
{
    FullMerge,
    Incremental,
};

/** Per-role (producer or consumer) prediction state. */
struct RolePredictor
{
    bool valid = false; ///< the role has been detected at least once
    SatCounter conf{2, 0};

    /** First detection: predict immediately (counter saturated). */
    void
    allocate()
    {
        if (!valid) {
            valid = true;
            conf.saturate();
        }
    }

    /**
     * Should a speculative value be *used*?
     * With the adaptive automaton only a saturated counter qualifies.
     */
    bool
    use(ConfidenceKind kind) const
    {
        if (!valid)
            return false;
        return kind == ConfidenceKind::OneBitNonAdaptive || conf.isMax();
    }

    /** Verification outcome: the (shadow) prediction was correct. */
    void onCorrect() { conf.increment(); }

    /**
     * Verification outcome: incorrect. Drop to 1 so two correct
     * predictions are required before use (2-bit automaton).
     */
    void onIncorrect() { conf.set(1); }
};

/** One DPNT entry. */
struct DpntEntry
{
    Synonym synonym = kNoSynonym;
    RolePredictor producer;
    RolePredictor consumer;
    /** True when this PC produces as a store (RAW), false as a load. */
    bool producerIsStore = false;
};

/** DPNT configuration. */
struct DpntConfig
{
    /** Table geometry; entries == 0 models the paper's infinite DPNT. */
    TableGeometry geometry{0, 0};
    ConfidenceKind confidence = ConfidenceKind::TwoBitAdaptive;
    MergePolicy merge = MergePolicy::Incremental;
};

/** The prediction and naming table. */
class Dpnt
{
  public:
    explicit Dpnt(const DpntConfig &config);

    /**
     * Prediction-side lookup for @p pc (updates recency).
     * @return the entry, or nullptr when this PC has no history.
     */
    DpntEntry *lookup(uint64_t pc);

    /**
     * Train on a detected dependence: create/merge synonyms and mark
     * the source as producer and the sink as consumer.
     */
    void train(const Dependence &dep);

    /** @return number of synonyms allocated so far. */
    uint64_t synonymsAllocated() const { return nextSynonym_ - 1; }

    /** @return number of merge events (both policies). */
    uint64_t mergeCount() const { return merges_; }

    const DpntConfig &config() const { return config_; }

    /**
     * Fault-injection hook (src/faultinject): corrupt one random
     * field of one random entry — a synonym bit, a role-valid flag, a
     * confidence counter, or the producer-kind flag. DPNT state is
     * performance-only: any wrong prediction it induces must be
     * caught by cloaking verification.
     * @return false when the table is empty (nothing to corrupt).
     */
    bool injectFault(Rng &rng);

    /** Probe-path counters / fill of the underlying table. */
    ProbeStats probeStats() const { return table_.probeStats(); }

    void clear();

  private:
    DpntEntry *findOrInsert(uint64_t pc);
    Synonym allocSynonym() { return nextSynonym_++; }
    /** Point every entry holding @p from at @p to (full merge). */
    void replaceAll(Synonym from, Synonym to);

    DpntConfig config_;
    HybridTable<DpntEntry> table_;
    Synonym nextSynonym_ = 1;
    uint64_t merges_ = 0;
};

} // namespace rarpred

#endif // RARPRED_CORE_DPNT_HH_
