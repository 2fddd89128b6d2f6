#include "core/dpnt.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace rarpred {

Dpnt::Dpnt(const DpntConfig &config)
    : config_(config), table_(config.geometry)
{
}

DpntEntry *
Dpnt::lookup(uint64_t pc)
{
    // PCs are 4-byte aligned; drop the zero bits so set indexing uses
    // meaningful address bits.
    return table_.touch(pc >> 2);
}

DpntEntry *
Dpnt::findOrInsert(uint64_t pc)
{
    return table_.touchOrInsert(pc >> 2, DpntEntry{}).first;
}

void
Dpnt::replaceAll(Synonym from, Synonym to)
{
    table_.forEach([&](uint64_t, DpntEntry &e) {
        if (e.synonym == from)
            e.synonym = to;
    });
}

void
Dpnt::train(const Dependence &dep)
{
    // Ensure both entries exist first: inserting the second can move
    // or evict the first within its set, so pointers are only taken
    // afterwards, via non-mutating finds.
    table_.touchOrInsert(dep.sourcePc >> 2, DpntEntry{});
    table_.touchOrInsert(dep.sinkPc >> 2, DpntEntry{});
    DpntEntry *src = table_.find(dep.sourcePc >> 2);
    DpntEntry *sink = table_.find(dep.sinkPc >> 2);
    if (!src || !sink) {
        // One displaced the other from a finite table; nothing to link.
        return;
    }

    if (src->synonym == kNoSynonym && sink->synonym == kNoSynonym) {
        Synonym s = allocSynonym();
        src->synonym = s;
        sink->synonym = s;
    } else if (src->synonym == kNoSynonym) {
        src->synonym = sink->synonym;
    } else if (sink->synonym == kNoSynonym) {
        sink->synonym = src->synonym;
    } else if (src->synonym != sink->synonym) {
        // Both named, names differ: merge the communication groups.
        ++merges_;
        if (config_.merge == MergePolicy::FullMerge) {
            Synonym keep = std::min(src->synonym, sink->synonym);
            Synonym lose = std::max(src->synonym, sink->synonym);
            replaceAll(lose, keep);
        } else {
            // Chrysos-Emer incremental merge: replace the larger
            // synonym, and only for its own instruction. The bias
            // toward smaller values makes the group converge.
            if (src->synonym > sink->synonym)
                src->synonym = sink->synonym;
            else
                sink->synonym = src->synonym;
        }
    }

    src->producer.allocate();
    src->producerIsStore = (dep.type == DepType::Raw);
    sink->consumer.allocate();
}

bool
Dpnt::injectFault(Rng &rng)
{
    if (table_.size() == 0)
        return false;
    const size_t victim = (size_t)rng.below(table_.size());
    bool injected = false;
    size_t i = 0;
    table_.forEach([&](uint64_t, DpntEntry &e) {
        if (i++ != victim)
            return;
        switch (rng.below(6)) {
          case 0:
            e.synonym ^= 1ull << rng.below(64);
            break;
          case 1:
            e.producer.valid = !e.producer.valid;
            break;
          case 2:
            e.consumer.valid = !e.consumer.valid;
            break;
          case 3:
            e.producer.conf.set(
                (uint8_t)rng.below(e.producer.conf.maxValue() + 1u));
            break;
          case 4:
            e.consumer.conf.set(
                (uint8_t)rng.below(e.consumer.conf.maxValue() + 1u));
            break;
          default:
            e.producerIsStore = !e.producerIsStore;
            break;
        }
        injected = true;
    });
    return injected;
}

void
Dpnt::clear()
{
    table_.clear();
    nextSynonym_ = 1;
    merges_ = 0;
}

} // namespace rarpred
