/**
 * @file
 * Branch-light open-addressing hash tables for the simulate hot path.
 *
 * Two structures share one probe discipline (linear probing over a
 * power-of-two slot array with tombstones and a mixed 64-bit hash):
 *
 *  - FlatMap<Value>:      a u64 -> Value map used where the hot loop
 *                         previously paid std::unordered_map node
 *                         allocation per insert (bandwidth limiters,
 *                         unbounded hint-table mode).
 *  - FlatLruTable<Value>: a fully-associative LRU table that replaces
 *                         the std::list + std::unordered_map pair in
 *                         FullyAssocLruTable (tests/lru_table.hh, kept
 *                         as the reference model). Entries live in a
 *                         contiguous slab; the recency list is
 *                         intrusive (prev/next slot indices), so a
 *                         touch is a probe plus four index writes and
 *                         a steady-state insert performs zero heap
 *                         allocations.
 *
 * Semantics are identical to the structures they replace: LRU order,
 * eviction decisions and forEach order (MRU-to-LRU) are preserved bit
 * for bit — the golden stats depend on that.
 *
 * Both tables keep ProbeStats (lookups, probe steps, max probe
 * length, resizes, live load factor) so the bench layer can report
 * measured load factors; the counters are mutable and cost two adds
 * per lookup.
 *
 * Same-capacity rehashes (tombstone purges) recycle a spare slot
 * array instead of allocating, so once a table has reached its
 * steady-state footprint it never touches the heap again — the
 * zero-allocation property test_arena.cc asserts over the simulate
 * loop depends on this.
 */

#ifndef RARPRED_COMMON_FLAT_TABLE_HH_
#define RARPRED_COMMON_FLAT_TABLE_HH_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace rarpred {

/** Probe-path counters exposed by the flat tables. */
struct ProbeStats
{
    uint64_t lookups = 0;  ///< probe sequences started
    uint64_t probes = 0;   ///< total slots inspected
    uint64_t maxProbe = 0; ///< longest single probe sequence
    uint64_t resizes = 0;  ///< rehashes (growth + tombstone purges)
    size_t size = 0;       ///< live entries
    size_t slots = 0;      ///< slot-array capacity

    /** Live entries per slot; the fill the probe path actually sees. */
    double
    loadFactor() const
    {
        return slots == 0 ? 0.0 : (double)size / (double)slots;
    }

    /** Mean probe length per lookup. */
    double
    avgProbe() const
    {
        return lookups == 0 ? 0.0 : (double)probes / (double)lookups;
    }
};

/** Final mix of splitmix64: full-avalanche, cheap, dense-key friendly. */
inline uint64_t
flatHashU64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/**
 * Open-addressed u64 -> Value map. Values must be default-
 * constructible and movable. Iteration order is unspecified (as with
 * the std::unordered_map it replaces); callers that need determinism
 * sort keys, exactly as before.
 */
template <typename Value>
class FlatMap
{
  public:
    explicit FlatMap(size_t min_slots = 16)
    {
        size_t cap = 16;
        while (cap < min_slots)
            cap <<= 1;
        slots_.assign(cap, Slot{});
        ctrl_.assign(cap, kEmpty);
        mask_ = cap - 1;
    }

    /**
     * Look up @p key, inserting it with @p init if absent.
     * @return reference to the stored value, valid until the next
     *         insertion.
     */
    Value &
    findOrInsert(uint64_t key, const Value &init)
    {
        maybeGrow();
        size_t i = flatHashU64(key) & mask_;
        size_t first_tomb = kNone;
        uint64_t steps = 0;
        for (;; i = (i + 1) & mask_) {
            ++steps;
            const uint8_t c = ctrl_[i];
            if (c == kFull && slots_[i].key == key) {
                note(steps);
                return slots_[i].value;
            }
            if (c == kEmpty) {
                note(steps);
                if (first_tomb != kNone) {
                    i = first_tomb;
                    --tombs_;
                }
                ctrl_[i] = kFull;
                slots_[i].key = key;
                slots_[i].value = init;
                ++size_;
                return slots_[i].value;
            }
            if (c == kTomb && first_tomb == kNone)
                first_tomb = i;
        }
    }

    /** Insert or overwrite @p key with @p value. */
    void
    insert(uint64_t key, Value value)
    {
        findOrInsert(key, Value{}) = std::move(value);
    }

    /** @return pointer to the value for @p key, or nullptr. */
    Value *
    find(uint64_t key)
    {
        const size_t i = probe(key);
        return i == kNone ? nullptr : &slots_[i].value;
    }

    /** Const variant of find(). */
    const Value *
    find(uint64_t key) const
    {
        const size_t i = probe(key);
        return i == kNone ? nullptr : &slots_[i].value;
    }

    /** Remove @p key. @return true if it was present. */
    bool
    erase(uint64_t key)
    {
        const size_t i = probe(key);
        if (i == kNone)
            return false;
        ctrl_[i] = kTomb;
        slots_[i].value = Value{};
        --size_;
        ++tombs_;
        return true;
    }

    /**
     * Remove every entry for which @p pred(key, value) holds.
     * @return number of entries removed.
     */
    template <typename Pred>
    size_t
    eraseIf(Pred &&pred)
    {
        size_t removed = 0;
        for (size_t i = 0; i < slots_.size(); ++i) {
            if (ctrl_[i] != kFull)
                continue;
            if (pred(slots_[i].key, slots_[i].value)) {
                ctrl_[i] = kTomb;
                slots_[i].value = Value{};
                --size_;
                ++tombs_;
                ++removed;
            }
        }
        return removed;
    }

    /** Remove every entry; slot capacity is retained. */
    void
    clear()
    {
        for (size_t i = 0; i < slots_.size(); ++i) {
            if (ctrl_[i] == kFull)
                slots_[i].value = Value{};
            ctrl_[i] = kEmpty;
        }
        size_ = 0;
        tombs_ = 0;
    }

    size_t size() const { return size_; }
    size_t slotCount() const { return slots_.size(); }

    /** Visit every entry with (uint64_t key, Value&); any order. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (size_t i = 0; i < slots_.size(); ++i)
            if (ctrl_[i] == kFull)
                fn(slots_[i].key, slots_[i].value);
    }

    /** Const variant of forEach(). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t i = 0; i < slots_.size(); ++i)
            if (ctrl_[i] == kFull)
                fn(slots_[i].key, slots_[i].value);
    }

    /** Probe-path counters plus the current fill. */
    ProbeStats
    probeStats() const
    {
        ProbeStats s = stats_;
        s.size = size_;
        s.slots = slots_.size();
        return s;
    }

  private:
    static constexpr uint8_t kEmpty = 0;
    static constexpr uint8_t kFull = 1;
    static constexpr uint8_t kTomb = 2;
    static constexpr size_t kNone = (size_t)-1;

    struct Slot
    {
        uint64_t key = 0;
        Value value{};
    };

    void
    note(uint64_t steps) const
    {
        ++stats_.lookups;
        stats_.probes += steps;
        if (steps > stats_.maxProbe)
            stats_.maxProbe = steps;
    }

    size_t
    probe(uint64_t key) const
    {
        size_t i = flatHashU64(key) & mask_;
        uint64_t steps = 0;
        for (;; i = (i + 1) & mask_) {
            ++steps;
            const uint8_t c = ctrl_[i];
            if (c == kFull && slots_[i].key == key) {
                note(steps);
                return i;
            }
            if (c == kEmpty) {
                note(steps);
                return kNone;
            }
        }
    }

    /**
     * Keep combined (live + tombstone) fill under 7/8 so probes stay
     * short and the insert loop always finds an empty slot, and purge
     * eagerly once tombstones alone cover a quarter of the slots —
     * erase-heavy users (LRU eviction churn) would otherwise drag the
     * average probe length toward the 7/8 ceiling between purges.
     * Grow 2x when the live fill itself is high; otherwise rebuild at
     * the same capacity to purge tombstones, recycling the spare
     * arrays (the purge amortizes to ~4 slot writes per erase).
     */
    void
    maybeGrow()
    {
        if ((size_ + tombs_ + 1) * 8 < slots_.size() * 7 &&
            tombs_ * 4 < slots_.size())
            return;
        const size_t cap = slots_.size();
        rehashTo(size_ * 2 >= cap ? cap * 2 : cap);
    }

    void
    rehashTo(size_t new_cap)
    {
        ++stats_.resizes;
        if (spareCtrl_.size() != new_cap) {
            spareSlots_.assign(new_cap, Slot{});
            spareCtrl_.assign(new_cap, kEmpty);
        } else {
            for (size_t i = 0; i < new_cap; ++i) {
                spareCtrl_[i] = kEmpty;
                spareSlots_[i] = Slot{};
            }
        }
        slots_.swap(spareSlots_);
        ctrl_.swap(spareCtrl_);
        mask_ = new_cap - 1;
        tombs_ = 0;
        for (size_t i = 0; i < spareCtrl_.size(); ++i) {
            if (spareCtrl_[i] != kFull)
                continue;
            size_t j = flatHashU64(spareSlots_[i].key) & mask_;
            while (ctrl_[j] == kFull)
                j = (j + 1) & mask_;
            ctrl_[j] = kFull;
            slots_[j].key = spareSlots_[i].key;
            slots_[j].value = std::move(spareSlots_[i].value);
        }
    }

    std::vector<Slot> slots_;
    std::vector<uint8_t> ctrl_;
    std::vector<Slot> spareSlots_;
    std::vector<uint8_t> spareCtrl_;
    size_t mask_ = 0;
    size_t size_ = 0;
    size_t tombs_ = 0;
    mutable ProbeStats stats_;
};

/**
 * Fully-associative LRU table on the flat probe path: a drop-in
 * replacement for FullyAssocLruTable<uint64_t, Value>
 * (tests/lru_table.hh) with identical semantics. Entries live in a
 * contiguous node slab linked into an intrusive MRU list; the key
 * index is a FlatMap of slab positions.
 */
template <typename Value>
class FlatLruTable
{
  public:
    /** An entry displaced by an insertion. */
    struct Eviction
    {
        uint64_t key;
        Value value;
    };

    /**
     * @param capacity Maximum number of entries; 0 means unbounded
     *                 ("infinite" table in the paper's experiments).
     */
    // The index gets 4x the entry count in slots: bounded tables
    // churn through erase tombstones on every eviction, and the
    // extra headroom keeps probe chains short between purges.
    explicit FlatLruTable(size_t capacity = 0)
        : capacity_(capacity),
          index_(capacity == 0 ? 16 : capacity * 4)
    {
        if (capacity_ != 0)
            nodes_.reserve(capacity_);
    }

    /**
     * Look up @p key and promote it to most-recently-used.
     * @return pointer to the stored value, or nullptr on miss.
     */
    Value *
    touch(uint64_t key)
    {
        uint32_t *ni = index_.find(key);
        if (ni == nullptr)
            return nullptr;
        moveToFront(*ni);
        return &nodes_[*ni].value;
    }

    /**
     * Look up @p key without changing recency order.
     * @return pointer to the stored value, or nullptr on miss.
     */
    Value *
    find(uint64_t key)
    {
        uint32_t *ni = index_.find(key);
        return ni == nullptr ? nullptr : &nodes_[*ni].value;
    }

    /** Const variant of find(). */
    const Value *
    find(uint64_t key) const
    {
        const uint32_t *ni = index_.find(key);
        return ni == nullptr ? nullptr : &nodes_[*ni].value;
    }

    /**
     * Insert or overwrite @p key with @p value and make it MRU.
     * @return the entry evicted to make room, if any.
     */
    std::optional<Eviction>
    insert(uint64_t key, Value value)
    {
        // One index probe resolves both the overwrite and the miss
        // case. The claimed reference stays valid across the victim
        // erase below: erase only marks a tombstone, it never moves
        // slots, and findOrInsert rehashes before returning.
        uint32_t &ni = index_.findOrInsert(key, kNil);
        if (ni != kNil) {
            nodes_[ni].value = std::move(value);
            moveToFront(ni);
            return std::nullopt;
        }
        std::optional<Eviction> victim;
        uint32_t idx;
        if (capacity_ != 0 && size_ >= capacity_) {
            idx = tail_;
            victim = Eviction{nodes_[idx].key,
                              std::move(nodes_[idx].value)};
            index_.erase(nodes_[idx].key);
            unlink(idx);
            --size_;
        } else if (freeHead_ != kNil) {
            idx = freeHead_;
            freeHead_ = nodes_[idx].next;
        } else {
            rarpred_assert(nodes_.size() < kNil);
            idx = (uint32_t)nodes_.size();
            nodes_.emplace_back();
        }
        nodes_[idx].key = key;
        nodes_[idx].value = std::move(value);
        linkFront(idx);
        ++size_;
        ni = idx;
        return victim;
    }

    /**
     * Look up @p key: on a hit promote it to MRU, on a miss insert
     * @p init as MRU (evicting the LRU entry of a full table). One
     * index probe either way — exactly equivalent to touch()
     * followed by insert() on miss, minus the second probe.
     * @return the entry pointer and whether it was newly inserted.
     */
    std::pair<Value *, bool>
    touchOrInsert(uint64_t key, Value init)
    {
        uint32_t &ni = index_.findOrInsert(key, kNil);
        if (ni != kNil) {
            moveToFront(ni);
            return {&nodes_[ni].value, false};
        }
        uint32_t idx;
        if (capacity_ != 0 && size_ >= capacity_) {
            idx = tail_;
            index_.erase(nodes_[idx].key);
            unlink(idx);
            --size_;
        } else if (freeHead_ != kNil) {
            idx = freeHead_;
            freeHead_ = nodes_[idx].next;
        } else {
            rarpred_assert(nodes_.size() < kNil);
            idx = (uint32_t)nodes_.size();
            nodes_.emplace_back();
        }
        nodes_[idx].key = key;
        nodes_[idx].value = std::move(init);
        linkFront(idx);
        ++size_;
        ni = idx;
        return {&nodes_[idx].value, true};
    }

    /** Remove @p key. @return true if it was present. */
    bool
    erase(uint64_t key)
    {
        uint32_t *ni = index_.find(key);
        if (ni == nullptr)
            return false;
        const uint32_t idx = *ni;
        index_.erase(key);
        unlink(idx);
        nodes_[idx].value = Value{};
        nodes_[idx].next = freeHead_;
        freeHead_ = idx;
        --size_;
        return true;
    }

    /** Remove every entry; the node slab is retained. */
    void
    clear()
    {
        index_.clear();
        nodes_.clear();
        head_ = tail_ = freeHead_ = kNil;
        size_ = 0;
    }

    /** @return current number of entries. */
    size_t size() const { return size_; }

    /** @return configured capacity (0 = unbounded). */
    size_t capacity() const { return capacity_; }

    /**
     * Visit every entry in MRU-to-LRU order.
     * @param fn Callable taking (uint64_t key, Value&).
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (uint32_t i = head_; i != kNil; i = nodes_[i].next)
            fn(nodes_[i].key, nodes_[i].value);
    }

    /** Const variant of forEach(): (uint64_t key, const Value&). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (uint32_t i = head_; i != kNil; i = nodes_[i].next)
            fn(nodes_[i].key, nodes_[i].value);
    }

    /**
     * Structural self-check for the property tests: the index and the
     * intrusive recency list must agree entry for entry, the list
     * links must be consistent in both directions, and the capacity
     * bound must hold. @return false on any violation.
     */
    bool
    auditIntegrity() const
    {
        if (capacity_ != 0 && size_ > capacity_)
            return false;
        if (index_.size() != size_)
            return false;
        size_t walked = 0;
        uint32_t prev = kNil;
        for (uint32_t i = head_; i != kNil; i = nodes_[i].next) {
            if (walked++ > size_)
                return false;
            if (nodes_[i].prev != prev)
                return false;
            const uint32_t *ni = index_.find(nodes_[i].key);
            if (ni == nullptr || *ni != i)
                return false;
            prev = i;
        }
        return walked == size_ && tail_ == prev;
    }

    /** Probe-path counters of the key index. */
    ProbeStats probeStats() const { return index_.probeStats(); }

  private:
    static constexpr uint32_t kNil = (uint32_t)-1;

    struct Node
    {
        uint64_t key = 0;
        Value value{};
        uint32_t prev = kNil;
        uint32_t next = kNil;
    };

    void
    unlink(uint32_t i)
    {
        Node &n = nodes_[i];
        if (n.prev != kNil)
            nodes_[n.prev].next = n.next;
        else
            head_ = n.next;
        if (n.next != kNil)
            nodes_[n.next].prev = n.prev;
        else
            tail_ = n.prev;
    }

    void
    linkFront(uint32_t i)
    {
        Node &n = nodes_[i];
        n.prev = kNil;
        n.next = head_;
        if (head_ != kNil)
            nodes_[head_].prev = i;
        head_ = i;
        if (tail_ == kNil)
            tail_ = i;
    }

    void
    moveToFront(uint32_t i)
    {
        if (head_ == i)
            return;
        unlink(i);
        linkFront(i);
    }

    size_t capacity_;
    FlatMap<uint32_t> index_;
    std::vector<Node> nodes_;
    uint32_t head_ = kNil;
    uint32_t tail_ = kNil;
    uint32_t freeHead_ = kNil;
    size_t size_ = 0;
};

} // namespace rarpred

#endif // RARPRED_COMMON_FLAT_TABLE_HH_
