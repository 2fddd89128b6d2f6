/**
 * @file
 * Size/associativity-configurable table.
 *
 * The paper evaluates its structures at several design points:
 * "infinite" (to bound achievable accuracy), fully associative with a
 * capacity (DDT, last-value predictor), and set associative (DPNT,
 * synonym file). HybridTable selects the right organization from a
 * (entries, assoc) pair so client code has a single interface:
 *
 *   entries == 0            -> unbounded (never evicts)
 *   assoc == 0 or == entries-> fully associative, LRU
 *   otherwise               -> set associative, LRU per set
 */

#ifndef RARPRED_COMMON_HYBRID_TABLE_HH_
#define RARPRED_COMMON_HYBRID_TABLE_HH_

#include <cstdint>
#include <memory>
#include <string>

#include "common/bitutils.hh"
#include "common/flat_table.hh"
#include "common/set_assoc_table.hh"
#include "common/status.hh"

namespace rarpred {

/** Geometry of a HybridTable. */
struct TableGeometry
{
    size_t entries = 0; ///< 0 = unbounded
    size_t assoc = 0;   ///< 0 = fully associative (ignored if unbounded)
};

/**
 * Check that @p geom describes a constructible table: a set-associative
 * organization needs entries divisible by assoc and a power-of-two set
 * count. Validate user-supplied geometries with this *before* handing
 * them to a table; construction treats violations as internal bugs
 * (panic), not user errors.
 * @param what Name of the table being configured, for the message.
 */
inline Status
validateGeometry(const TableGeometry &geom, const std::string &what)
{
    if (geom.entries == 0 || geom.assoc == 0 || geom.assoc >= geom.entries)
        return Status{}; // unbounded or fully associative
    if (geom.entries % geom.assoc != 0)
        return Status::invalidArgument(
            what + ": entries (" + std::to_string(geom.entries) +
            ") not a multiple of associativity (" +
            std::to_string(geom.assoc) + ")");
    if (!isPowerOf2(geom.entries / geom.assoc))
        return Status::invalidArgument(
            what + ": set count (" +
            std::to_string(geom.entries / geom.assoc) +
            ") is not a power of two");
    return Status{};
}

/** A 64-bit-keyed table whose organization is chosen at run time. */
template <typename Value>
class HybridTable
{
  public:
    explicit HybridTable(TableGeometry geom)
    {
        if (geom.entries == 0) {
            // unbounded flat map, nothing to construct
        } else if (geom.assoc == 0 || geom.assoc >= geom.entries) {
            full_ = std::make_unique<FlatLruTable<Value>>(geom.entries);
        } else {
            setAssoc_ = std::make_unique<SetAssocTable<Value>>(geom.entries,
                                                               geom.assoc);
        }
    }

    /** Look up @p key, updating recency. @return value or nullptr. */
    Value *
    touch(uint64_t key)
    {
        if (full_)
            return full_->touch(key);
        if (setAssoc_)
            return setAssoc_->touch(key);
        return map_.find(key);
    }

    /** Look up @p key without updating recency. */
    Value *
    find(uint64_t key)
    {
        if (full_)
            return full_->find(key);
        if (setAssoc_)
            return setAssoc_->find(key);
        return map_.find(key);
    }

    /**
     * Look up @p key, promoting on a hit and inserting @p init on a
     * miss — one probe/scan in every organization, equivalent to
     * touch() followed by insert() on miss.
     * @return the entry pointer and whether it was newly inserted.
     */
    std::pair<Value *, bool>
    touchOrInsert(uint64_t key, Value init)
    {
        if (full_)
            return full_->touchOrInsert(key, std::move(init));
        if (setAssoc_)
            return setAssoc_->touchOrInsert(key, std::move(init));
        const size_t before = map_.size();
        Value &ref = map_.findOrInsert(key, std::move(init));
        return {&ref, map_.size() != before};
    }

    /** Insert or overwrite @p key. Evictions are silent here. */
    void
    insert(uint64_t key, Value value)
    {
        if (full_)
            full_->insert(key, std::move(value));
        else if (setAssoc_)
            setAssoc_->insert(key, std::move(value));
        else
            map_.insert(key, std::move(value));
    }

    /** Remove @p key. @return true if present. */
    bool
    erase(uint64_t key)
    {
        if (full_)
            return full_->erase(key);
        if (setAssoc_)
            return setAssoc_->erase(key);
        return map_.erase(key);
    }

    void
    clear()
    {
        if (full_)
            full_->clear();
        else if (setAssoc_)
            setAssoc_->clear();
        else
            map_.clear();
    }

    size_t
    size() const
    {
        if (full_)
            return full_->size();
        if (setAssoc_)
            return setAssoc_->size();
        return map_.size();
    }

    /** Visit every entry with (uint64_t key, Value&). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        if (full_)
            full_->forEach(fn);
        else if (setAssoc_)
            setAssoc_->forEach(fn);
        else
            map_.forEach(fn);
    }

    /** Const variant of forEach(): (uint64_t key, const Value&). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (full_)
            full_->forEach(fn);
        else if (setAssoc_)
            setAssoc_->forEach(fn);
        else
            map_.forEach(fn);
    }

    /**
     * Probe-path counters of the underlying organization. The
     * set-associative mode has no probe sequence; it reports fill
     * (size/capacity) only.
     */
    ProbeStats
    probeStats() const
    {
        if (full_)
            return full_->probeStats();
        if (setAssoc_) {
            ProbeStats s;
            s.size = setAssoc_->size();
            s.slots = setAssoc_->capacity();
            return s;
        }
        return map_.probeStats();
    }

  private:
    std::unique_ptr<FlatLruTable<Value>> full_;
    std::unique_ptr<SetAssocTable<Value>> setAssoc_;
    FlatMap<Value> map_;
};

} // namespace rarpred

#endif // RARPRED_COMMON_HYBRID_TABLE_HH_
