/**
 * @file
 * Unit tests for the common infrastructure: saturating counters, bit
 * utilities, the deterministic RNG, the associative tables, and the
 * statistics package.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "common/bitutils.hh"
#include "common/hybrid_table.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/set_assoc_table.hh"
#include "common/stats.hh"
#include "lru_table.hh"

namespace rarpred {
namespace {

// ---------------------------------------------------------------- bits

TEST(BitUtils, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(BitUtils, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1025), 10u);
}

TEST(BitUtils, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(BitUtils, Mask)
{
    EXPECT_EQ(mask(0), 0ull);
    EXPECT_EQ(mask(1), 1ull);
    EXPECT_EQ(mask(8), 0xffull);
    EXPECT_EQ(mask(64), ~0ull);
}

// --------------------------------------------------------- sat counter

TEST(SatCounter, SaturatesHighAndLow)
{
    SatCounter c(2, 0);
    EXPECT_EQ(c.value(), 0);
    c.decrement();
    EXPECT_EQ(c.value(), 0);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3);
    EXPECT_TRUE(c.isMax());
}

TEST(SatCounter, PredictUsesMsb)
{
    SatCounter c(2, 0);
    EXPECT_FALSE(c.predict());
    c.increment(); // 1
    EXPECT_FALSE(c.predict());
    c.increment(); // 2
    EXPECT_TRUE(c.predict());
    c.increment(); // 3
    EXPECT_TRUE(c.predict());
}

TEST(SatCounter, SetClampsToMax)
{
    SatCounter c(2, 0);
    c.set(200);
    EXPECT_EQ(c.value(), 3);
    c.set(1);
    EXPECT_EQ(c.value(), 1);
}

TEST(SatCounter, WidthOne)
{
    SatCounter c(1, 0);
    EXPECT_EQ(c.maxValue(), 1);
    c.increment();
    EXPECT_TRUE(c.predict());
    c.increment();
    EXPECT_EQ(c.value(), 1);
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 5000; ++i) {
        uint64_t v = rng.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        hit_lo |= v == 3;
        hit_hi |= v == 5;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng rng(11);
    uint64_t first = rng.next();
    rng.next();
    rng.reseed(11);
    EXPECT_EQ(rng.next(), first);
}

// ------------------------------------------------------ fully-assoc LRU

TEST(FullyAssocLru, BasicInsertFind)
{
    FullyAssocLruTable<uint64_t, int> t(4);
    EXPECT_EQ(t.find(1), nullptr);
    t.insert(1, 10);
    ASSERT_NE(t.find(1), nullptr);
    EXPECT_EQ(*t.find(1), 10);
    EXPECT_EQ(t.size(), 1u);
}

TEST(FullyAssocLru, EvictsLeastRecentlyUsed)
{
    FullyAssocLruTable<uint64_t, int> t(2);
    t.insert(1, 10);
    t.insert(2, 20);
    auto evicted = t.insert(3, 30);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->key, 1u);
    EXPECT_EQ(evicted->value, 10);
    EXPECT_EQ(t.find(1), nullptr);
}

TEST(FullyAssocLru, TouchRefreshesRecency)
{
    FullyAssocLruTable<uint64_t, int> t(2);
    t.insert(1, 10);
    t.insert(2, 20);
    EXPECT_NE(t.touch(1), nullptr); // 1 becomes MRU
    auto evicted = t.insert(3, 30);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->key, 2u); // 2 was LRU
}

TEST(FullyAssocLru, FindDoesNotRefreshRecency)
{
    FullyAssocLruTable<uint64_t, int> t(2);
    t.insert(1, 10);
    t.insert(2, 20);
    EXPECT_NE(t.find(1), nullptr); // does not touch
    auto evicted = t.insert(3, 30);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->key, 1u); // 1 still LRU
}

TEST(FullyAssocLru, OverwriteDoesNotEvict)
{
    FullyAssocLruTable<uint64_t, int> t(2);
    t.insert(1, 10);
    t.insert(2, 20);
    auto evicted = t.insert(1, 11);
    EXPECT_FALSE(evicted.has_value());
    EXPECT_EQ(*t.find(1), 11);
    EXPECT_EQ(t.size(), 2u);
}

TEST(FullyAssocLru, UnboundedNeverEvicts)
{
    FullyAssocLruTable<uint64_t, int> t(0);
    for (uint64_t i = 0; i < 10000; ++i)
        EXPECT_FALSE(t.insert(i, (int)i).has_value());
    EXPECT_EQ(t.size(), 10000u);
}

TEST(FullyAssocLru, EraseAndClear)
{
    FullyAssocLruTable<uint64_t, int> t(4);
    t.insert(1, 10);
    t.insert(2, 20);
    EXPECT_TRUE(t.erase(1));
    EXPECT_FALSE(t.erase(1));
    EXPECT_EQ(t.size(), 1u);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
}

TEST(FullyAssocLru, ForEachVisitsMruFirst)
{
    FullyAssocLruTable<uint64_t, int> t(4);
    t.insert(1, 10);
    t.insert(2, 20);
    t.insert(3, 30);
    std::vector<uint64_t> order;
    t.forEach([&](uint64_t k, int &) { order.push_back(k); });
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 3u);
    EXPECT_EQ(order[2], 1u);
}

// -------------------------------------------------------- set-assoc LRU

TEST(SetAssoc, ConflictsWithinSetOnly)
{
    // 8 entries, 2-way: 4 sets. Keys 0, 4, 8 map to set 0.
    SetAssocTable<int> t(8, 2);
    t.insert(0, 1);
    t.insert(4, 2);
    auto evicted = t.insert(8, 3);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->key, 0u);
    // Other sets unaffected.
    t.insert(1, 9);
    EXPECT_NE(t.find(1), nullptr);
    EXPECT_NE(t.find(4), nullptr);
    EXPECT_NE(t.find(8), nullptr);
}

TEST(SetAssoc, TouchPromotesWithinSet)
{
    SetAssocTable<int> t(8, 2);
    t.insert(0, 1);
    t.insert(4, 2);
    t.touch(0);
    auto evicted = t.insert(8, 3);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->key, 4u);
}

TEST(SetAssoc, FullKeyIsTag)
{
    SetAssocTable<int> t(8, 2);
    t.insert(0, 1);
    // Key 4 maps to the same set but must not alias.
    EXPECT_EQ(t.find(4), nullptr);
}

TEST(SetAssoc, SizeAndCapacity)
{
    SetAssocTable<int> t(16, 4);
    EXPECT_EQ(t.capacity(), 16u);
    EXPECT_EQ(t.numSets(), 4u);
    EXPECT_EQ(t.assoc(), 4u);
    for (uint64_t i = 0; i < 10; ++i)
        t.insert(i, 0);
    EXPECT_EQ(t.size(), 10u);
}

TEST(SetAssoc, EraseFromSet)
{
    SetAssocTable<int> t(8, 2);
    t.insert(0, 1);
    EXPECT_TRUE(t.erase(0));
    EXPECT_FALSE(t.erase(0));
    EXPECT_EQ(t.find(0), nullptr);
}

TEST(SetAssoc, FullyAssocWhenOneSet)
{
    SetAssocTable<int> t(4, 4);
    EXPECT_EQ(t.numSets(), 1u);
    t.insert(100, 1);
    t.insert(200, 2);
    t.insert(300, 3);
    t.insert(400, 4);
    auto evicted = t.insert(500, 5);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->key, 100u);
}

// ---------------------------------------------------------- hybrid table

TEST(HybridTable, UnboundedMode)
{
    HybridTable<int> t({0, 0});
    for (uint64_t i = 0; i < 1000; ++i)
        t.insert(i, (int)i);
    EXPECT_EQ(t.size(), 1000u);
    EXPECT_EQ(*t.find(999), 999);
}

TEST(HybridTable, FullyAssocMode)
{
    HybridTable<int> t({4, 0});
    for (uint64_t i = 0; i < 8; ++i)
        t.insert(i, (int)i);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_NE(t.find(7), nullptr);
}

TEST(HybridTable, SetAssocMode)
{
    HybridTable<int> t({8, 2});
    t.insert(0, 1);
    t.insert(4, 2);
    t.insert(8, 3); // evicts key 0 from set 0
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_NE(t.find(8), nullptr);
}

TEST(HybridTable, EraseAllModes)
{
    for (TableGeometry g :
         {TableGeometry{0, 0}, TableGeometry{8, 0}, TableGeometry{8, 2}}) {
        HybridTable<int> t(g);
        t.insert(3, 33);
        EXPECT_TRUE(t.erase(3));
        EXPECT_EQ(t.find(3), nullptr);
    }
}

TEST(HybridTable, ForEachAllModes)
{
    for (TableGeometry g :
         {TableGeometry{0, 0}, TableGeometry{8, 0}, TableGeometry{8, 2}}) {
        HybridTable<int> t(g);
        t.insert(1, 1);
        t.insert(2, 2);
        std::set<uint64_t> keys;
        t.forEach([&](uint64_t k, int &) { keys.insert(k); });
        EXPECT_EQ(keys.size(), 2u);
    }
}

// ------------------------------------------------------------------ stats

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, HistogramBucketsAndOverflow)
{
    Histogram h(4, 10); // buckets [0,10) [10,20) [20,30) [30,40) + ovf
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(39);
    h.sample(100);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.bucket(4), 1u); // overflow
    EXPECT_NEAR(h.mean(), (0 + 9 + 10 + 39 + 100) / 5.0, 1e-9);
}

TEST(Stats, HistogramReset)
{
    Histogram h(2, 5);
    h.sample(3);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(Stats, StatGroupDumpFormat)
{
    StatGroup group("cpu");
    Counter a, b;
    a += 3;
    b += 7;
    group.registerCounter("loads", &a);
    group.registerCounter("stores", &b);
    std::ostringstream os;
    group.dump(os);
    EXPECT_EQ(os.str(), "cpu.loads 3\ncpu.stores 7\n");
    group.reset();
    EXPECT_EQ(a.value(), 0u);
}

} // namespace
} // namespace rarpred
