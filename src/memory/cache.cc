#include "memory/cache.hh"

#include "common/logging.hh"

namespace rarpred {

Cache::Cache(const CacheConfig &config)
    : config_(config), blockBits_(floorLog2(config.blockBytes)),
      tags_(config.sizeBytes / config.blockBytes, config.assoc)
{
    rarpred_assert(isPowerOf2(config.blockBytes));
    rarpred_assert(config.sizeBytes % config.blockBytes == 0);
}

bool
Cache::access(uint64_t addr, bool is_write,
              std::optional<Writeback> *writeback)
{
    const uint64_t block = blockOf(addr);
    std::optional<SetAssocTable<LineMeta>::Eviction> evicted;
    auto [line, miss] = tags_.touchOrInsert(block, LineMeta{is_write},
                                            writeback ? &evicted : nullptr);
    if (!miss) {
        ++hits_;
        if (is_write)
            line->dirty = true;
        return true;
    }
    ++misses_;
    if (evicted && evicted->value.dirty)
        *writeback = Writeback{evicted->key << blockBits_};
    return false;
}

bool
Cache::probe(uint64_t addr) const
{
    return tags_.find(blockOf(addr)) != nullptr;
}

void
Cache::invalidate(uint64_t addr)
{
    tags_.erase(blockOf(addr));
}

} // namespace rarpred
