#include "predictor/store_sets.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace rarpred {

StoreSetPredictor::StoreSetPredictor(size_t ssit_entries,
                                     size_t lfst_entries)
    : ssit_(ssit_entries, kNoSsid), lfst_(lfst_entries, kNoStore)
{
    rarpred_assert(isPowerOf2(ssit_entries));
    rarpred_assert(isPowerOf2(lfst_entries));
}

std::optional<uint64_t>
StoreSetPredictor::onStoreDispatch(uint64_t pc, uint64_t seq)
{
    const uint32_t ssid = ssit_[ssitIndex(pc)];
    if (ssid == kNoSsid)
        return std::nullopt;
    uint64_t &last = lfst_[ssid & (lfst_.size() - 1)];
    std::optional<uint64_t> prev;
    if (last != kNoStore)
        prev = last; // in-order store-store constraint within the set
    last = seq;
    return prev;
}

std::optional<uint64_t>
StoreSetPredictor::onLoadDispatch(uint64_t pc)
{
    const uint32_t ssid = ssit_[ssitIndex(pc)];
    if (ssid == kNoSsid)
        return std::nullopt;
    const uint64_t last = lfst_[ssid & (lfst_.size() - 1)];
    if (last == kNoStore)
        return std::nullopt;
    return last;
}

void
StoreSetPredictor::onStoreRetire(uint64_t pc, uint64_t seq)
{
    const uint32_t ssid = ssit_[ssitIndex(pc)];
    if (ssid == kNoSsid)
        return;
    uint64_t &last = lfst_[ssid & (lfst_.size() - 1)];
    if (last == seq)
        last = kNoStore; // no younger store of this set in flight
}

void
StoreSetPredictor::onViolation(uint64_t load_pc, uint64_t store_pc)
{
    uint32_t &load_ssid = ssit_[ssitIndex(load_pc)];
    uint32_t &store_ssid = ssit_[ssitIndex(store_pc)];
    ++assignments_;
    if (load_ssid == kNoSsid && store_ssid == kNoSsid) {
        const uint32_t ssid = nextSsid_++;
        load_ssid = ssid;
        store_ssid = ssid;
    } else if (load_ssid == kNoSsid) {
        load_ssid = store_ssid;
    } else if (store_ssid == kNoSsid) {
        store_ssid = load_ssid;
    } else if (load_ssid != store_ssid) {
        // Value-biased merge: the smaller SSID wins, one side at a
        // time (the rule the paper reuses for DPNT synonyms).
        ++merges_;
        if (load_ssid < store_ssid)
            store_ssid = load_ssid;
        else
            load_ssid = store_ssid;
    }
}

bool
StoreSetPredictor::injectFault(Rng &rng)
{
    if (rng.below(2) == 0) {
        uint32_t &slot = ssit_[(size_t)rng.below(ssit_.size())];
        slot ^= 1u << rng.below(32);
    } else {
        uint64_t &slot = lfst_[(size_t)rng.below(lfst_.size())];
        slot ^= 1ull << rng.below(64);
    }
    return true;
}

void
StoreSetPredictor::clear()
{
    std::fill(ssit_.begin(), ssit_.end(), kNoSsid);
    std::fill(lfst_.begin(), lfst_.end(), kNoStore);
    nextSsid_ = 0;
}

} // namespace rarpred
