/**
 * @file
 * Single cache level: set-associative tag store with true LRU and
 * write-back/write-allocate policy.
 */

#ifndef RARPRED_MEMORY_CACHE_HH_
#define RARPRED_MEMORY_CACHE_HH_

#include <cstdint>
#include <optional>
#include <string>

#include "common/bitutils.hh"
#include "common/set_assoc_table.hh"
#include "common/stats.hh"

namespace rarpred {

/** Geometry and timing of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    uint64_t sizeBytes = 32 * 1024;
    uint64_t blockBytes = 16;
    unsigned assoc = 2;
    unsigned hitLatency = 2; ///< cycles
};

/** Tag store for one cache level. */
class Cache
{
  public:
    /** A block written back on eviction. */
    struct Writeback
    {
        uint64_t blockAddr; ///< block-aligned byte address
    };

    explicit Cache(const CacheConfig &config);

    /**
     * Access the cache.
     * @param addr Byte address.
     * @param is_write True for stores (marks the block dirty).
     * @param[out] writeback Set when a dirty block was evicted.
     * @return true on hit.
     */
    bool access(uint64_t addr, bool is_write,
                std::optional<Writeback> *writeback = nullptr);

    /** Probe without allocating or updating LRU. @return true on hit. */
    bool probe(uint64_t addr) const;

    /** Invalidate a block if present. */
    void invalidate(uint64_t addr);

    const CacheConfig &config() const { return config_; }

    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }

    /** Hit latency in cycles. */
    unsigned hitLatency() const { return config_.hitLatency; }

  private:
    struct LineMeta
    {
        bool dirty = false;
    };

    uint64_t blockOf(uint64_t addr) const
    {
        return addr >> blockBits_;
    }

    CacheConfig config_;
    unsigned blockBits_;
    SetAssocTable<LineMeta> tags_;
    Counter hits_;
    Counter misses_;
};

} // namespace rarpred

#endif // RARPRED_MEMORY_CACHE_HH_
