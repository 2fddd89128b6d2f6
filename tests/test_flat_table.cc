/**
 * @file
 * Property/fuzz battery for the open-addressing tables of
 * common/flat_table.hh, the probe path under every hint structure and
 * bandwidth limiter on the simulate hot loop.
 *
 * FlatMap is checked operation-for-operation against a
 * std::unordered_map model; FlatLruTable against the list+map
 * FullyAssocLruTable it replaces (tests/lru_table.hh), including
 * eviction identity and MRU iteration order. Directed cases cover
 * the probe-path corners: index wraparound past the top slot,
 * tombstone reuse after erase, and the max-load-factor resize.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_table.hh"
#include "common/rng.hh"
#include "lru_table.hh"

namespace rarpred {
namespace {

// ------------------------------------------------- FlatMap model

/** Drive a FlatMap and a std::unordered_map with the same ops. */
class FlatMapFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FlatMapFuzz, MatchesUnorderedMapModel)
{
    Rng rng(GetParam());
    FlatMap<uint64_t> map;
    std::unordered_map<uint64_t, uint64_t> model;

    // A small key domain forces collisions, erase-reinsert cycles
    // and tombstone traffic; a wide one exercises growth.
    const uint64_t domain = rng.chance(0.5) ? 64 : 100'000;

    for (int step = 0; step < 30'000; ++step) {
        const uint64_t key = rng.below(domain) * 0x9e3779b97f4a7c15ull;
        switch (rng.below(6)) {
        case 0:
        case 1: { // findOrInsert
            const uint64_t init = rng.below(1000);
            uint64_t &got = map.findOrInsert(key, init);
            auto [it, fresh] = model.try_emplace(key, init);
            ASSERT_EQ(got, it->second) << "step " << step;
            if (rng.chance(0.3)) { // mutate through the reference
                got += 7;
                it->second += 7;
            }
            (void)fresh;
            break;
        }
        case 2: { // insert (overwrite)
            const uint64_t value = rng.below(1000);
            map.insert(key, value);
            model[key] = value;
            break;
        }
        case 3: { // find
            uint64_t *got = map.find(key);
            auto it = model.find(key);
            ASSERT_EQ(got != nullptr, it != model.end());
            if (got != nullptr)
                ASSERT_EQ(*got, it->second);
            break;
        }
        case 4: { // erase
            ASSERT_EQ(map.erase(key), model.erase(key) != 0);
            break;
        }
        case 5: { // eraseIf, occasionally
            if (!rng.chance(0.02))
                break;
            const uint64_t cut = rng.below(1000);
            const size_t removed = map.eraseIf(
                [cut](uint64_t, const uint64_t &v) { return v < cut; });
            size_t model_removed = 0;
            for (auto it = model.begin(); it != model.end();) {
                if (it->second < cut) {
                    it = model.erase(it);
                    ++model_removed;
                } else {
                    ++it;
                }
            }
            ASSERT_EQ(removed, model_removed);
            break;
        }
        }
        ASSERT_EQ(map.size(), model.size()) << "step " << step;
    }

    // Full-content sweep: forEach must visit exactly the model.
    std::unordered_map<uint64_t, uint64_t> seen;
    map.forEach([&](uint64_t k, const uint64_t &v) { seen[k] = v; });
    EXPECT_EQ(seen.size(), model.size());
    for (const auto &[k, v] : model) {
        auto it = seen.find(k);
        ASSERT_NE(it, seen.end());
        EXPECT_EQ(it->second, v);
    }

    // The resize policy keeps the probe path fast: live + tombstone
    // fill stays under 7/8 at all times.
    const ProbeStats s = map.probeStats();
    EXPECT_EQ(s.size, model.size());
    EXPECT_LT(s.loadFactor(), 7.0 / 8.0);
    EXPECT_GT(s.lookups, 0u);
    EXPECT_GE(s.probes, s.lookups);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatMapFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --------------------------------------------- directed corners

/** Find @p n keys whose initial probe slot (mod 16) equals @p slot. */
std::vector<uint64_t>
keysHashingTo(size_t slot, size_t n)
{
    std::vector<uint64_t> keys;
    for (uint64_t k = 1; keys.size() < n; ++k)
        if ((flatHashU64(k) & 15) == slot)
            keys.push_back(k);
    return keys;
}

TEST(FlatMapCorners, ProbeWrapsAroundTheTopSlot)
{
    // Several keys all landing on the last slot of a 16-slot table:
    // the linear probe must wrap to slot 0 and keep going.
    FlatMap<uint64_t> map(16);
    const auto keys = keysHashingTo(15, 5);
    for (size_t i = 0; i < keys.size(); ++i)
        map.insert(keys[i], i + 100);
    ASSERT_EQ(map.slotCount(), 16u) << "grew prematurely";
    for (size_t i = 0; i < keys.size(); ++i) {
        uint64_t *v = map.find(keys[i]);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, i + 100);
    }
    // Longest chain walked 5 colliding slots.
    EXPECT_GE(map.probeStats().maxProbe, 5u);

    // Erase the middle of the wrapped chain; the entries past it must
    // stay reachable (the tombstone keeps the probe going).
    ASSERT_TRUE(map.erase(keys[1]));
    for (size_t i = 2; i < keys.size(); ++i)
        ASSERT_NE(map.find(keys[i]), nullptr);
}

TEST(FlatMapCorners, TombstonesAreReusedByReinsertion)
{
    FlatMap<uint64_t> map(16);
    const auto keys = keysHashingTo(3, 4);
    for (uint64_t k : keys)
        map.insert(k, k);
    // Kill the head of the chain, then reinsert the tail key: the
    // probe must park it in the first tombstone, not extend the
    // chain — a subsequent find hits it in a single step.
    ASSERT_TRUE(map.erase(keys[0]));
    ASSERT_TRUE(map.erase(keys[3]));
    map.insert(keys[3], 99);
    const uint64_t probes_before = map.probeStats().probes;
    ASSERT_NE(map.find(keys[3]), nullptr);
    EXPECT_EQ(map.probeStats().probes - probes_before, 1u);
    EXPECT_EQ(*map.find(keys[3]), 99u);
    // And the chain is still intact for the untouched keys.
    for (size_t i = 1; i < 3; ++i)
        ASSERT_NE(map.find(keys[i]), nullptr);
}

TEST(FlatMapCorners, GrowsAtMaxLoadFactorAndKeepsContent)
{
    FlatMap<uint64_t> map(16);
    for (uint64_t k = 0; k < 10'000; ++k)
        map.insert(k * 0x9e3779b97f4a7c15ull, k);
    const ProbeStats s = map.probeStats();
    EXPECT_GT(s.resizes, 0u);
    EXPECT_LT(s.loadFactor(), 7.0 / 8.0);
    EXPECT_GE(s.slots, 10'000u);
    for (uint64_t k = 0; k < 10'000; ++k) {
        uint64_t *v = map.find(k * 0x9e3779b97f4a7c15ull);
        ASSERT_NE(v, nullptr);
        ASSERT_EQ(*v, k);
    }
}

TEST(FlatMapCorners, EraseHeavyChurnStaysBounded)
{
    // Insert/erase cycles with disjoint keys each round: tombstone
    // purges must keep the table at its steady-state capacity instead
    // of growing without bound.
    FlatMap<uint64_t> map;
    uint64_t next_key = 0;
    size_t max_slots = 0;
    for (int round = 0; round < 200; ++round) {
        std::vector<uint64_t> keys;
        for (int i = 0; i < 100; ++i)
            keys.push_back(next_key++);
        for (uint64_t k : keys)
            map.insert(k, k);
        for (uint64_t k : keys)
            ASSERT_TRUE(map.erase(k));
        max_slots = std::max(max_slots, map.slotCount());
    }
    EXPECT_EQ(map.size(), 0u);
    // 100 live entries need 256 slots at 7/8 fill; anything well
    // beyond that means tombstones leaked into growth decisions.
    EXPECT_LE(max_slots, 512u);
    EXPECT_GT(map.probeStats().resizes, 0u);
}

// --------------------------------------------- FlatLruTable model

using ModelLru = FullyAssocLruTable<uint64_t, uint64_t>;

/** MRU-to-LRU (key, value) listing of either table flavour. */
template <typename Table>
std::vector<std::pair<uint64_t, uint64_t>>
listOf(const Table &t)
{
    std::vector<std::pair<uint64_t, uint64_t>> out;
    t.forEach([&](uint64_t k, const uint64_t &v) {
        out.emplace_back(k, v);
    });
    return out;
}

class FlatLruFuzz
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>>
{
};

TEST_P(FlatLruFuzz, MatchesListMapModel)
{
    const auto [seed, capacity] = GetParam();
    Rng rng(seed);
    FlatLruTable<uint64_t> table(capacity);
    ModelLru model(capacity);

    const uint64_t domain =
        capacity == 0 ? 500 : (uint64_t)capacity * 3;

    for (int step = 0; step < 20'000; ++step) {
        const uint64_t key = rng.below(domain);
        switch (rng.below(5)) {
        case 0: { // insert: evictions must be identical
            const uint64_t value = rng.below(1000);
            auto got = table.insert(key, value);
            auto want = model.insert(key, value);
            ASSERT_EQ(got.has_value(), want.has_value())
                << "step " << step;
            if (got.has_value()) {
                ASSERT_EQ(got->key, want->key);
                ASSERT_EQ(got->value, want->value);
            }
            break;
        }
        case 1: { // touch: same hit/miss, same value, same promotion
            uint64_t *got = table.touch(key);
            uint64_t *want = model.touch(key);
            ASSERT_EQ(got != nullptr, want != nullptr);
            if (got != nullptr)
                ASSERT_EQ(*got, *want);
            break;
        }
        case 2: { // find: no recency change
            uint64_t *got = table.find(key);
            uint64_t *want = model.find(key);
            ASSERT_EQ(got != nullptr, want != nullptr);
            if (got != nullptr)
                ASSERT_EQ(*got, *want);
            break;
        }
        case 3: { // erase
            ASSERT_EQ(table.erase(key), model.erase(key));
            break;
        }
        case 4: { // clear, rarely
            if (rng.chance(0.005)) {
                table.clear();
                model.clear();
            }
            break;
        }
        }
        ASSERT_EQ(table.size(), model.size()) << "step " << step;
        if (step % 1000 == 0) {
            ASSERT_TRUE(table.auditIntegrity()) << "step " << step;
            ASSERT_EQ(listOf(table), listOf(model)) << "step " << step;
        }
    }

    // Recency order must match entry for entry.
    EXPECT_EQ(listOf(table), listOf(model));
    EXPECT_TRUE(table.auditIntegrity());

    const ProbeStats s = table.probeStats();
    EXPECT_EQ(s.size, table.size());
    EXPECT_LT(s.loadFactor(), 7.0 / 8.0);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndCapacities, FlatLruFuzz,
    ::testing::Combine(::testing::Values(11, 22, 33),
                       ::testing::Values(0, 1, 8, 128)));

} // namespace
} // namespace rarpred
