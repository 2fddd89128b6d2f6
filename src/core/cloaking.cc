#include "core/cloaking.hh"

namespace rarpred {

Status
CloakingConfig::validate() const
{
    RARPRED_RETURN_IF_ERROR(validateGeometry(dpnt.geometry, "dpnt"));
    RARPRED_RETURN_IF_ERROR(validateGeometry(sf, "synonym file"));
    if (ddt.granularityLog2 > 12)
        return Status::outOfRange(
            "ddt: detection granularity log2 (" +
            std::to_string(ddt.granularityLog2) +
            ") exceeds the supported maximum of 12 (4KiB)");
    return Status{};
}

DdtConfig
CloakingEngine::ddtConfigFor(const CloakingConfig &config)
{
    DdtConfig ddt = config.ddt;
    switch (config.mode) {
      case CloakingMode::RawOnly:
        ddt.trackLoads = false;
        break;
      case CloakingMode::RarOnly:
        ddt.trackStores = false;
        break;
      case CloakingMode::RawPlusRar:
        break;
    }
    return ddt;
}

CloakingEngine::CloakingEngine(const CloakingConfig &config)
    : config_(config), detector_(ddtConfigFor(config)),
      dpnt_(config.dpnt), sf_(config.sf)
{
}

LoadOutcome
CloakingEngine::processInst(const DynInst &di)
{
    LoadOutcome outcome;
    if (!di.isMem())
        return outcome;

    const ConfidenceKind conf = config_.dpnt.confidence;

    if (di.isStore()) {
        ++stats_.stores;
        // Producer side: a store predicted as producer deposits its
        // value under its synonym (available at commit; in the timing
        // model it is available as soon as the store's data is).
        if (DpntEntry *e = dpnt_.lookup(di.pc)) {
            if (e->synonym != kNoSynonym && e->producer.valid) {
                sf_.produce(e->synonym, di.value, true, di.pc, di.seq);
                outcome.synonym = e->synonym;
                outcome.predictedProducer = true;
            }
        }
        detector_.onStore(di.pc, di.eaddr);
        return outcome;
    }

    // --- Load ---
    outcome.wasLoad = true;
    ++stats_.loads;

    DpntEntry *e = dpnt_.lookup(di.pc);

    // 1. Consumer side: predict, fetch the speculative value, verify
    //    against the architectural value di.value. Verification also
    //    happens when confidence is below the use threshold (shadow
    //    prediction), which is how the 2-bit automaton climbs back.
    if (e && e->synonym != kNoSynonym && e->consumer.valid) {
        if (SfEntry *sf = sf_.consume(e->synonym)) {
            if (sf->full) {
                const bool correct = (sf->value == di.value);
                const bool use = e->consumer.use(conf);
                if (use) {
                    outcome.used = true;
                    outcome.correct = correct;
                    outcome.specValue = sf->value;
                    outcome.type =
                        sf->fromStore ? DepType::Raw : DepType::Rar;
                    outcome.producerSeq = sf->producerSeq;
                    outcome.producerIsStore = sf->fromStore;
                    if (correct) {
                        if (sf->fromStore)
                            ++stats_.coveredRaw;
                        else
                            ++stats_.coveredRar;
                    } else {
                        if (sf->fromStore)
                            ++stats_.mispredRaw;
                        else
                            ++stats_.mispredRar;
                    }
                }
                if (correct)
                    e->consumer.onCorrect();
                else
                    e->consumer.onIncorrect();
            } else if (e->consumer.use(conf)) {
                ++stats_.predictedEmpty;
            }
        } else if (e->consumer.use(conf)) {
            ++stats_.predictedEmpty;
        }
    }

    if (e && e->synonym != kNoSynonym)
        outcome.synonym = e->synonym;

    // 2. Producer side: the earliest load of a RAR group deposits the
    //    value it just read.
    if (e && e->synonym != kNoSynonym && e->producer.valid) {
        sf_.produce(e->synonym, di.value, false, di.pc, di.seq);
        outcome.predictedProducer = true;
    }

    // 3. Detection and training (hardware mechanism only).
    if (config_.onlineTraining) {
        if (auto dep = detector_.onLoad(di.pc, di.eaddr)) {
            if (dep->type == DepType::Raw)
                ++stats_.detectedRaw;
            else
                ++stats_.detectedRar;
            dpnt_.train(*dep);
        }
    }

    return outcome;
}

} // namespace rarpred
