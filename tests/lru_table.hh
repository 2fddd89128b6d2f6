/**
 * @file
 * Fully-associative LRU table on std::list + std::unordered_map.
 *
 * The reference model for FlatLruTable (common/flat_table.hh), which
 * replaced it in the simulator: test_flat_table.cc checks the flat
 * table against it operation by operation, and test_common.cc pins
 * its own LRU semantics (capacity 0 means unbounded).
 */

#ifndef RARPRED_TESTS_LRU_TABLE_HH_
#define RARPRED_TESTS_LRU_TABLE_HH_

#include <cstddef>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

namespace rarpred {

/**
 * A fully-associative, LRU-replaced key/value table.
 *
 * @tparam Key   Hashable key type (addresses, PCs, synonyms).
 * @tparam Value Payload stored per entry.
 */
template <typename Key, typename Value>
class FullyAssocLruTable
{
  public:
    /** An entry displaced by an insertion. */
    struct Eviction
    {
        Key key;
        Value value;
    };

    /**
     * @param capacity Maximum number of entries; 0 means unbounded
     *                 ("infinite" table in the paper's experiments).
     */
    explicit FullyAssocLruTable(size_t capacity = 0) : capacity_(capacity) {}

    /**
     * Look up @p key and promote it to most-recently-used.
     * @return pointer to the stored value, or nullptr on miss.
     */
    Value *
    touch(const Key &key)
    {
        auto it = map_.find(key);
        if (it == map_.end())
            return nullptr;
        lru_.splice(lru_.begin(), lru_, it->second);
        return &it->second->second;
    }

    /**
     * Look up @p key without changing recency order.
     * @return pointer to the stored value, or nullptr on miss.
     */
    Value *
    find(const Key &key)
    {
        auto it = map_.find(key);
        return it == map_.end() ? nullptr : &it->second->second;
    }

    /** Const variant of find(). */
    const Value *
    find(const Key &key) const
    {
        auto it = map_.find(key);
        return it == map_.end() ? nullptr : &it->second->second;
    }

    /**
     * Insert or overwrite @p key with @p value and make it MRU.
     * @return the entry evicted to make room, if any.
     */
    std::optional<Eviction>
    insert(const Key &key, Value value)
    {
        auto it = map_.find(key);
        if (it != map_.end()) {
            it->second->second = std::move(value);
            lru_.splice(lru_.begin(), lru_, it->second);
            return std::nullopt;
        }
        std::optional<Eviction> victim;
        if (capacity_ != 0 && map_.size() >= capacity_) {
            auto last = std::prev(lru_.end());
            victim = Eviction{last->first, std::move(last->second)};
            map_.erase(last->first);
            lru_.erase(last);
        }
        lru_.emplace_front(key, std::move(value));
        map_[key] = lru_.begin();
        return victim;
    }

    /** Remove @p key. @return true if it was present. */
    bool
    erase(const Key &key)
    {
        auto it = map_.find(key);
        if (it == map_.end())
            return false;
        lru_.erase(it->second);
        map_.erase(it);
        return true;
    }

    /** Remove every entry. */
    void
    clear()
    {
        map_.clear();
        lru_.clear();
    }

    /** @return current number of entries. */
    size_t size() const { return map_.size(); }

    /** @return configured capacity (0 = unbounded). */
    size_t capacity() const { return capacity_; }

    /**
     * Visit every entry in MRU-to-LRU order.
     * @param fn Callable taking (const Key&, Value&).
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (auto &kv : lru_)
            fn(kv.first, kv.second);
    }

    /** Const variant of forEach(): (const Key&, const Value&). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &kv : lru_)
            fn(kv.first, kv.second);
    }

  private:
    using LruList = std::list<std::pair<Key, Value>>;

    size_t capacity_;
    LruList lru_;
    std::unordered_map<Key, typename LruList::iterator> map_;
};

} // namespace rarpred

#endif // RARPRED_TESTS_LRU_TABLE_HH_
