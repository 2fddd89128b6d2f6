#include "core/ddt.hh"

#include "common/rng.hh"

namespace rarpred {

DependenceDetector::DependenceDetector(const DdtConfig &config)
    : config_(config), table_(config.entries),
      loadTable_(config.separateTables ? config.entries : 0)
{
}

void
DependenceDetector::onStore(uint64_t pc, uint64_t addr)
{
    const uint64_t line = lineOf(addr);
    if (config_.separateTables) {
        // A store ends any RAR chain through this address: the next
        // load must see the store (RAW), not the old first load.
        loadTable_.erase(line);
        if (config_.trackStores)
            table_.insert(line, Entry{true, pc});
        return;
    }
    if (config_.trackStores) {
        table_.insert(line, Entry{true, pc});
    } else {
        // Stores are not tracked (RAR-only configuration), but they
        // still kill the recorded first load for the address.
        table_.erase(line);
    }
}

std::optional<Dependence>
DependenceDetector::onLoad(uint64_t pc, uint64_t addr)
{
    const uint64_t line = lineOf(addr);

    if (config_.separateTables) {
        if (Entry *e = table_.touch(line)) {
            // RAW with the recorded store. The load is not recorded:
            // the store remains the producer for this address.
            return Dependence{DepType::Raw, e->pc, pc};
        }
        if (!config_.trackLoads)
            return std::nullopt;
        // Single-probe hit-or-record: a hit keeps the first load as
        // the producer, a miss records this load.
        auto [e, inserted] = loadTable_.touchOrInsert(line, Entry{false, pc});
        if (!inserted)
            return Dependence{DepType::Rar, e->pc, pc};
        return std::nullopt;
    }

    if (!config_.trackLoads) {
        Entry *e = table_.touch(line);
        if (e) {
            if (e->isStore)
                return Dependence{DepType::Raw, e->pc, pc};
            return Dependence{DepType::Rar, e->pc, pc};
        }
        return std::nullopt;
    }
    auto [e, inserted] = table_.touchOrInsert(line, Entry{false, pc});
    if (!inserted) {
        if (e->isStore)
            return Dependence{DepType::Raw, e->pc, pc};
        return Dependence{DepType::Rar, e->pc, pc};
    }
    return std::nullopt;
}

void
DependenceDetector::clear()
{
    table_.clear();
    loadTable_.clear();
}

bool
DependenceDetector::injectFault(Rng &rng)
{
    const size_t total = table_.size() + loadTable_.size();
    if (total == 0)
        return false;
    size_t victim = (size_t)rng.below(total);
    auto &table = victim < table_.size() ? table_ : loadTable_;
    if (victim >= table_.size())
        victim -= table_.size();
    bool injected = false;
    size_t i = 0;
    table.forEach([&](uint64_t, Entry &e) {
        if (i++ != victim)
            return;
        // One spare bit position beyond the PC toggles the kind flag.
        const unsigned bit = (unsigned)rng.below(65);
        if (bit == 64)
            e.isStore = !e.isStore;
        else
            e.pc ^= 1ull << bit;
        injected = true;
    });
    return injected;
}

} // namespace rarpred
