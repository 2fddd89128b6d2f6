/**
 * @file
 * Set-associative LRU table.
 *
 * The finite, banked structures of the paper are set associative: the
 * 8K 2-way DPNT, the 1K 2-way synonym file (Section 5.6.1), and all of
 * the caches in the memory hierarchy use this template (caches store
 * their line metadata as the value).
 *
 * Storage is one contiguous slot array (numSets * assoc ways) with a
 * per-set occupancy count; ways of a set are kept MRU-first by
 * shifting within the set, exactly mirroring the recency semantics of
 * the former vector-of-vectors layout. A whole set lands on one or
 * two cache lines and the table performs no heap allocation after
 * construction — part of the hot path's zero-allocation contract.
 */

#ifndef RARPRED_COMMON_SET_ASSOC_TABLE_HH_
#define RARPRED_COMMON_SET_ASSOC_TABLE_HH_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace rarpred {

/**
 * A set-associative key/value table with true-LRU replacement per set.
 *
 * Keys are 64-bit integers (PCs, block addresses, synonyms). The set
 * index is taken from the low bits of the key; the full key is kept as
 * the tag, so aliasing never produces a false hit.
 */
template <typename Value>
class SetAssocTable
{
  public:
    /** An entry displaced by an insertion. */
    struct Eviction
    {
        uint64_t key;
        Value value;
    };

    /**
     * @param num_entries Total entry count; must be a multiple of assoc
     *                    and num_entries/assoc must be a power of two.
     * @param assoc       Associativity (ways per set).
     */
    SetAssocTable(size_t num_entries, size_t assoc)
        : assoc_(assoc), numSets_(num_entries / assoc)
    {
        rarpred_assert(assoc >= 1);
        rarpred_assert(num_entries % assoc == 0);
        rarpred_assert(isPowerOf2(numSets_));
        indexMask_ = numSets_ - 1;
        slots_.resize(numSets_ * assoc_);
        sizes_.assign(numSets_, 0);
    }

    /**
     * Look up @p key and promote it to MRU within its set.
     * @return pointer to the stored value, or nullptr on miss.
     */
    Value *
    touch(uint64_t key)
    {
        const size_t base = indexOf(key) * assoc_;
        const size_t n = sizes_[indexOf(key)];
        for (size_t i = 0; i < n; ++i) {
            if (slots_[base + i].first == key) {
                promote(base, i);
                return &slots_[base].second;
            }
        }
        return nullptr;
    }

    /**
     * Look up @p key without changing recency order.
     * @return pointer to the stored value, or nullptr on miss.
     */
    Value *
    find(uint64_t key)
    {
        const size_t base = indexOf(key) * assoc_;
        const size_t n = sizes_[indexOf(key)];
        for (size_t i = 0; i < n; ++i)
            if (slots_[base + i].first == key)
                return &slots_[base + i].second;
        return nullptr;
    }

    /** Const variant of find(). */
    const Value *
    find(uint64_t key) const
    {
        const size_t base = indexOf(key) * assoc_;
        const size_t n = sizes_[indexOf(key)];
        for (size_t i = 0; i < n; ++i)
            if (slots_[base + i].first == key)
                return &slots_[base + i].second;
        return nullptr;
    }

    /**
     * Insert or overwrite @p key with @p value, making it MRU.
     * @return the LRU entry evicted from the set, if the set was full.
     */
    std::optional<Eviction>
    insert(uint64_t key, Value value)
    {
        const size_t si = indexOf(key);
        const size_t base = si * assoc_;
        size_t n = sizes_[si];
        for (size_t i = 0; i < n; ++i) {
            if (slots_[base + i].first == key) {
                slots_[base + i].second = std::move(value);
                promote(base, i);
                return std::nullopt;
            }
        }
        std::optional<Eviction> victim;
        if (n >= assoc_) {
            auto &lru = slots_[base + assoc_ - 1];
            victim = Eviction{lru.first, std::move(lru.second)};
            n = assoc_ - 1;
        }
        // Shift [0, n) one way right, then write the new MRU way.
        for (size_t i = n; i > 0; --i)
            slots_[base + i] = std::move(slots_[base + i - 1]);
        slots_[base].first = key;
        slots_[base].second = std::move(value);
        sizes_[si] = (uint32_t)(n + 1);
        return victim;
    }

    /**
     * Look up @p key: on a hit promote it to MRU, on a miss insert
     * @p init as the set's MRU (silently dropping the LRU way of a
     * full set). One set scan — equivalent to touch() followed by
     * insert() on miss. The eviction, if any, is reported through
     * @p evicted when the caller passes one (else discarded).
     * @return the entry pointer and whether it was newly inserted.
     */
    std::pair<Value *, bool>
    touchOrInsert(uint64_t key, Value init,
                  std::optional<Eviction> *evicted = nullptr)
    {
        const size_t si = indexOf(key);
        const size_t base = si * assoc_;
        size_t n = sizes_[si];
        for (size_t i = 0; i < n; ++i) {
            if (slots_[base + i].first == key) {
                promote(base, i);
                return {&slots_[base].second, false};
            }
        }
        if (n >= assoc_) {
            if (evicted) {
                auto &lru = slots_[base + assoc_ - 1];
                *evicted = Eviction{lru.first, std::move(lru.second)};
            }
            n = assoc_ - 1;
        }
        for (size_t i = n; i > 0; --i)
            slots_[base + i] = std::move(slots_[base + i - 1]);
        slots_[base].first = key;
        slots_[base].second = std::move(init);
        sizes_[si] = (uint32_t)(n + 1);
        return {&slots_[base].second, true};
    }

    /** Remove @p key. @return true if it was present. */
    bool
    erase(uint64_t key)
    {
        const size_t si = indexOf(key);
        const size_t base = si * assoc_;
        const size_t n = sizes_[si];
        for (size_t i = 0; i < n; ++i) {
            if (slots_[base + i].first == key) {
                for (size_t j = i + 1; j < n; ++j)
                    slots_[base + j - 1] = std::move(slots_[base + j]);
                slots_[base + n - 1] = {};
                sizes_[si] = (uint32_t)(n - 1);
                return true;
            }
        }
        return false;
    }

    /** Remove every entry. */
    void
    clear()
    {
        for (auto &slot : slots_)
            slot = {};
        sizes_.assign(numSets_, 0);
    }

    /** @return current number of valid entries across all sets. */
    size_t
    size() const
    {
        size_t n = 0;
        for (uint32_t s : sizes_)
            n += s;
        return n;
    }

    /** @return total capacity in entries. */
    size_t capacity() const { return numSets_ * assoc_; }

    /** @return the number of sets. */
    size_t numSets() const { return numSets_; }

    /** @return the associativity. */
    size_t assoc() const { return assoc_; }

    /**
     * Visit every valid entry (set by set, MRU first within a set).
     * @param fn Callable taking (uint64_t key, Value&).
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (size_t si = 0; si < numSets_; ++si)
            for (size_t i = 0; i < sizes_[si]; ++i)
                fn(slots_[si * assoc_ + i].first,
                   slots_[si * assoc_ + i].second);
    }

    /** Const variant of forEach(): (uint64_t key, const Value&). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t si = 0; si < numSets_; ++si)
            for (size_t i = 0; i < sizes_[si]; ++i)
                fn(slots_[si * assoc_ + i].first,
                   slots_[si * assoc_ + i].second);
    }

  private:
    size_t indexOf(uint64_t key) const { return key & indexMask_; }

    /** Rotate way @p i of the set at @p base to the MRU position. */
    void
    promote(size_t base, size_t i)
    {
        if (i == 0)
            return;
        auto entry = std::move(slots_[base + i]);
        for (size_t j = i; j > 0; --j)
            slots_[base + j] = std::move(slots_[base + j - 1]);
        slots_[base] = std::move(entry);
    }

    size_t assoc_;
    size_t numSets_;
    uint64_t indexMask_;
    std::vector<std::pair<uint64_t, Value>> slots_;
    std::vector<uint32_t> sizes_;
};

} // namespace rarpred

#endif // RARPRED_COMMON_SET_ASSOC_TABLE_HH_
