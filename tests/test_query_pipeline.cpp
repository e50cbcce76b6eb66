/// Tests for the pipelined, cached query path (out-of-order reply
/// completion, the consumer-side producer-set cache and its
/// invalidation) and for the memoized coalesced runs the selection
/// kernels walk (the kernels themselves are checked against their naive
/// oracle in test_kernels.cpp).

#include <lowfive/lowfive.hpp>
#include <workflow/workflow.hpp>

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace h5;
using workflow::Context;
using workflow::Link;
using workflow::Options;

namespace {

/// Producers write contiguous quarters of a 1-d array; consumers read the
/// whole array, so every producer answers both intersect and data queries.
void write_quarter(Context& ctx, const std::string& fname, std::uint64_t total) {
    File f = File::create(fname, ctx.vol);
    auto d = f.create_dataset("v", dt::uint64(), Dataspace({total}));

    const auto  per = total / static_cast<std::uint64_t>(ctx.size());
    Dataspace   sel({total});
    diy::Bounds b(1);
    b.min[0] = static_cast<std::int64_t>(per) * ctx.rank();
    b.max[0] = static_cast<std::int64_t>(per) * (ctx.rank() + 1);
    sel.select_box(b);
    std::vector<std::uint64_t> vals(sel.npoints());
    for (std::uint64_t i = 0; i < vals.size(); ++i)
        vals[i] = static_cast<std::uint64_t>(b.min[0]) + i;
    d.write(vals.data(), sel);
    f.close();
}

} // namespace

TEST(QueryPipeline, OutOfOrderRepliesByteIdentical) {
    // Producers serve with staggered delays chosen so that higher-rank
    // replies overtake lower-rank ones (rank 3 wakes before rank 2): the
    // consumer's any-source drain must reassemble a byte-identical
    // buffer regardless of arrival order.
    const std::uint64_t total = 4096;
    Options             opts;
    opts.mode           = workflow::Mode::in_situ();
    opts.serve_on_close = false; // serve manually, after the stagger delay

    workflow::run(
        {
            {"producer", 4,
             [&](Context& ctx) {
                 write_quarter(ctx, "ooo.h5", total);
                 // ranks 0/1 (the metadata targets) serve at once; rank 2
                 // wakes after rank 3, forcing reply order 0,1,3,2
                 static constexpr int delay_ms[4] = {0, 0, 80, 40};
                 std::this_thread::sleep_for(
                     std::chrono::milliseconds(delay_ms[ctx.rank()]));
                 ctx.vol->serve_all();
             }},
            {"consumer", 2,
             [&](Context& ctx) {
                 File f = File::open("ooo.h5", ctx.vol);
                 auto vals = f.open_dataset("v").read_vector<std::uint64_t>();
                 ASSERT_EQ(vals.size(), total);
                 for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(vals[i], i);
                 f.close();
                 // the read touched every producer's index block
                 EXPECT_EQ(ctx.vol->stats().n_intersect_queries, 4u);
                 EXPECT_EQ(ctx.vol->stats().n_data_queries, 4u);
             }},
        },
        {Link{0, 1, "*"}}, opts);
}

TEST(QueryPipeline, SecondReadHitsCacheZeroIntersects) {
    const std::uint64_t total = 1024;
    workflow::run(
        {
            {"producer", 2, [&](Context& ctx) { write_quarter(ctx, "cached.h5", total); }},
            {"consumer", 1,
             [&](Context& ctx) {
                 File f = File::open("cached.h5", ctx.vol);
                 auto d = f.open_dataset("v");

                 auto first = d.read_vector<std::uint64_t>();
                 const auto after_first = ctx.vol->stats();
                 EXPECT_GT(after_first.n_intersect_queries, 0u);
                 EXPECT_EQ(after_first.n_intersect_cache_hits, 0u);
                 EXPECT_EQ(after_first.n_intersect_cache_misses, 1u);

                 // the repeated read must skip the intersect round entirely
                 auto second = d.read_vector<std::uint64_t>();
                 const auto after_second = ctx.vol->stats();
                 EXPECT_EQ(after_second.n_intersect_queries, after_first.n_intersect_queries);
                 EXPECT_EQ(after_second.n_intersect_cache_hits, 1u);
                 EXPECT_EQ(after_second.n_intersect_cache_misses, 1u);

                 ASSERT_EQ(first, second);
                 for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(first[i], i);
                 f.close();
             }},
        },
        {Link{0, 1, "*"}});
}

TEST(QueryPipeline, CacheInvalidatedOnReopenAfterRewrite) {
    // The producer rewrites the file between the consumer's two opens;
    // the second read must re-run the intersect round (no stale cache)
    // and observe the new contents.
    const std::uint64_t total = 256;
    workflow::run(
        {
            {"producer", 2,
             [&](Context& ctx) {
                 write_quarter(ctx, "rw.h5", total); // values i
                 ctx.vol->drop_file("rw.h5");

                 // version 2: values i + 1000, written by the *opposite*
                 // rank so even the producer set changes
                 File f = File::create("rw.h5", ctx.vol);
                 auto d = f.create_dataset("v", dt::uint64(), Dataspace({total}));
                 const auto  per   = total / 2;
                 const int   other = 1 - ctx.rank();
                 Dataspace   sel({total});
                 diy::Bounds b(1);
                 b.min[0] = static_cast<std::int64_t>(per) * other;
                 b.max[0] = static_cast<std::int64_t>(per) * (other + 1);
                 sel.select_box(b);
                 std::vector<std::uint64_t> vals(per);
                 for (std::uint64_t i = 0; i < per; ++i)
                     vals[i] = static_cast<std::uint64_t>(b.min[0]) + i + 1000;
                 d.write(vals.data(), sel);
                 ctx.world.barrier(); // consumer finished round 1
                 f.close();
             }},
            {"consumer", 1,
             [&](Context& ctx) {
                 {
                     File f = File::open("rw.h5", ctx.vol);
                     auto v = f.open_dataset("v").read_vector<std::uint64_t>();
                     for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(v[i], i);
                     f.close();
                 }
                 ctx.world.barrier(); // producer may now close version 2
                 {
                     File f = File::open("rw.h5", ctx.vol);
                     auto v = f.open_dataset("v").read_vector<std::uint64_t>();
                     for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(v[i], i + 1000);
                     f.close();
                 }
                 // both reads ran the intersect round: the close of the
                 // first open invalidated the cached producer set
                 EXPECT_EQ(ctx.vol->stats().n_intersect_cache_hits, 0u);
                 EXPECT_EQ(ctx.vol->stats().n_intersect_cache_misses, 2u);
             }},
        },
        {Link{0, 1, "*"}});
}

TEST(QueryPipeline, SameVersionReopenHitsCache) {
    // The intersect cache is keyed by the producer's publish version, so
    // a plain close/reopen of an *unchanged* file keeps it warm: before
    // version keying the close wiped the cache wholesale and the second
    // open had to re-run the intersect round.
    const std::uint64_t total = 512;
    Options             opts;
    opts.background_serve = true; // keep serving across both opens
    workflow::run(
        {
            {"producer", 2,
             [&](Context& ctx) {
                 write_quarter(ctx, "warm.h5", total);
                 if (ctx.rank() == 0) ctx.world.recv_value<int>(2, 88);
                 ctx.local.barrier(); // both ranks outlive the reopen
             }},
            {"consumer", 1,
             [&](Context& ctx) {
                 {
                     File f = File::open("warm.h5", ctx.vol);
                     auto v = f.open_dataset("v").read_vector<std::uint64_t>();
                     for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(v[i], i);
                     f.close();
                 }
                 const auto mid = ctx.vol->stats();
                 EXPECT_EQ(mid.n_intersect_cache_misses, 1u);
                 EXPECT_EQ(mid.n_intersect_cache_hits, 0u);
                 {
                     File f = File::open("warm.h5", ctx.vol);
                     auto v = f.open_dataset("v").read_vector<std::uint64_t>();
                     for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(v[i], i);
                     f.close();
                 }
                 const auto after = ctx.vol->stats();
                 // same version ⇒ the cached producer set is still valid:
                 // no new intersect round, one cache hit
                 EXPECT_EQ(after.n_intersect_queries, mid.n_intersect_queries);
                 EXPECT_EQ(after.n_intersect_cache_hits, 1u);
                 EXPECT_EQ(after.n_intersect_cache_misses, 1u);
                 ctx.world.send_value(0, 88, 1); // producer may retire
             }},
        },
        {Link{0, 1, "*"}}, opts);
}

// --- coalesced runs ---------------------------------------------------------

TEST(CoalescedRuns, SlabCoalescesToSingleRun) {
    // full rows of a slab merge into one run per slab
    Dataspace sp({16, 8});
    sp.select_box(std::array<std::uint64_t, 2>{4, 0}, std::array<std::uint64_t, 2>{6, 8});
    ASSERT_EQ(sp.runs().size(), 1u);
    EXPECT_EQ(sp.runs()[0].file_off, 32u);
    EXPECT_EQ(sp.runs()[0].len, 48u);
    EXPECT_EQ(sp.runs()[0].packed_off, 0u);
}

TEST(CoalescedRuns, CacheInvalidatedOnMutation) {
    Dataspace sp({8, 8});
    sp.select_box(std::array<std::uint64_t, 2>{0, 0}, std::array<std::uint64_t, 2>{2, 8});
    ASSERT_EQ(sp.runs().size(), 1u);
    sp.select_none();
    EXPECT_TRUE(sp.runs().empty());
    diy::Bounds b(2);
    b.min = {4, 2};
    b.max = {6, 5};
    sp.add_box(b);
    EXPECT_EQ(sp.runs().size(), 2u); // partial rows cannot merge
    // a copy shares the memoized runs but mutates independently
    Dataspace cp = sp;
    cp.select_all();
    EXPECT_EQ(cp.runs().size(), 1u);
    EXPECT_EQ(sp.runs().size(), 2u);
}
