/**
 * @file
 * Speculative memory cloaking engine (functional model).
 *
 * Composes the DDT, DPNT and Synonym File into the full cloaking
 * mechanism of Sections 3.1/5.3: detection at commit, PC-based
 * prediction, speculative value propagation through synonyms, and
 * verification against the architectural value. Operates on the
 * committed trace, which is exactly the vantage point of the paper's
 * accuracy experiments (Figures 5-7 and both tables); the timing
 * pipeline of src/cpu reuses the same components for Figures 9-10.
 */

#ifndef RARPRED_CORE_CLOAKING_HH_
#define RARPRED_CORE_CLOAKING_HH_

#include <cstdint>
#include <ostream>
#include <string>

#include "common/status.hh"
#include "core/ddt.hh"
#include "core/dpnt.hh"
#include "core/synonym_file.hh"
#include "vm/trace.hh"

namespace rarpred {

/** Which dependence types the mechanism exploits. */
enum class CloakingMode : uint8_t
{
    RawOnly,   ///< original RAW-based cloaking/bypassing [15]
    RarOnly,   ///< RAR extension alone (analysis configurations)
    RawPlusRar ///< the paper's combined mechanism
};

/** Complete configuration of a cloaking mechanism. */
struct CloakingConfig
{
    CloakingMode mode = CloakingMode::RawPlusRar;
    /** DDT geometry/policy; entries default to the paper's 128. */
    DdtConfig ddt{};
    /** DPNT geometry and policies (default: infinite, adaptive). */
    DpntConfig dpnt{};
    /** Synonym file geometry (default: infinite). */
    TableGeometry sf{0, 0};
    /**
     * Detect dependences and train the DPNT at run time (the paper's
     * hardware mechanism). Disable for software-guided cloaking
     * (Reinman et al. [17]), where the DPNT is preloaded from a
     * profile and only prediction/verification run in hardware.
     */
    bool onlineTraining = true;

    /**
     * Check that every geometry and parameter in this configuration
     * is constructible. User-facing drivers must call this before
     * building a CloakingEngine; a violation reported here would
     * otherwise surface as a panic inside table construction.
     */
    Status validate() const;
};

/** Accuracy statistics over all executed loads (Figure 6 metrics). */
struct CloakingStats
{
    uint64_t loads = 0;
    uint64_t stores = 0;
    /** Loads whose used speculative value was correct, by producer. */
    uint64_t coveredRaw = 0;
    uint64_t coveredRar = 0;
    /** Loads whose used speculative value was wrong, by producer. */
    uint64_t mispredRaw = 0;
    uint64_t mispredRar = 0;
    /** Loads predicted as consumers whose SF entry held no value. */
    uint64_t predictedEmpty = 0;
    /** Dependences detected by the DDT, by type. */
    uint64_t detectedRaw = 0;
    uint64_t detectedRar = 0;

    uint64_t covered() const { return coveredRaw + coveredRar; }
    uint64_t mispredicted() const { return mispredRaw + mispredRar; }

    /** Coverage as a fraction of all executed loads. */
    double
    coverage() const
    {
        return loads == 0 ? 0.0 : (double)covered() / (double)loads;
    }

    /** Misspeculation rate as a fraction of all executed loads. */
    double
    mispredictionRate() const
    {
        return loads == 0 ? 0.0 : (double)mispredicted() / (double)loads;
    }

    /** Write gem5-style "prefix.stat value" lines. */
    void
    dump(std::ostream &os, const std::string &prefix = "cloaking") const
    {
        os << prefix << ".loads " << loads << "\n";
        os << prefix << ".stores " << stores << "\n";
        os << prefix << ".coveredRaw " << coveredRaw << "\n";
        os << prefix << ".coveredRar " << coveredRar << "\n";
        os << prefix << ".mispredRaw " << mispredRaw << "\n";
        os << prefix << ".mispredRar " << mispredRar << "\n";
        os << prefix << ".predictedEmpty " << predictedEmpty << "\n";
        os << prefix << ".detectedRaw " << detectedRaw << "\n";
        os << prefix << ".detectedRar " << detectedRar << "\n";
        os << prefix << ".coverage " << coverage() << "\n";
        os << prefix << ".mispredictionRate " << mispredictionRate()
           << "\n";
    }
};

/** Per-load outcome, for experiments that cross-tabulate mechanisms. */
struct LoadOutcome
{
    bool wasLoad = false;
    /** A speculative value was used for this load. */
    bool used = false;
    /** The used value was correct. */
    bool correct = false;
    /** The speculative value that was used (valid when used). */
    uint64_t specValue = 0;
    /** Producer type of the used value (valid when used). */
    DepType type = DepType::Raw;
    /** Dynamic seq of the producing instruction (valid when used). */
    uint64_t producerSeq = 0;
    /** The producer was a store (valid when used). */
    bool producerIsStore = false;
    /** Synonym this instruction carries (kNoSynonym when unnamed). */
    Synonym synonym = kNoSynonym;
    /**
     * This instruction (store or load) was predicted as a producer
     * and deposited its value — the event that renames the synonym in
     * the SRT for bypassing (Section 3.2).
     */
    bool predictedProducer = false;
};

/** The cloaking mechanism. */
class CloakingEngine final : public TraceSink
{
  public:
    explicit CloakingEngine(const CloakingConfig &config);

    /** Process one committed instruction. */
    void onInst(const DynInst &di) override { (void)processInst(di); }

    /** Batched feed: one virtual call per block (class is final). */
    void
    onBatch(const DynInst *batch, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            (void)processInst(batch[i]);
    }

    /**
     * Process one committed instruction and report what happened to
     * it. Sequence per Figure 4: consumer predict + verify against
     * the architectural value, then producer deposit, then dependence
     * detection and DPNT training.
     */
    LoadOutcome processInst(const DynInst &di);

    const CloakingStats &stats() const { return stats_; }
    const CloakingConfig &config() const { return config_; }

    /** Access to the underlying predictor state (tests, ablations). */
    Dpnt &dpnt() { return dpnt_; }
    SynonymFile &synonymFile() { return sf_; }
    DependenceDetector &detector() { return detector_; }

    void resetStats() { stats_ = CloakingStats{}; }

  private:
    static DdtConfig ddtConfigFor(const CloakingConfig &config);

    CloakingConfig config_;
    DependenceDetector detector_;
    Dpnt dpnt_;
    SynonymFile sf_;
    CloakingStats stats_;
};

} // namespace rarpred

#endif // RARPRED_CORE_CLOAKING_HH_
