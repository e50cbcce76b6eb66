/// Tests for the page-warm piece pool (h5::take_piece_bytes /
/// give_piece_bytes): exact-size reuse, the size floor, the peak bound
/// under a seeded random workload, the drain when the last VOL goes
/// (also with a pinned snapshot outliving it), zero fill of dirty
/// buffers on the writable-file read path, and a second same-size
/// workflow round hitting the pool.

#include <check/race.hpp>
#include <h5/h5.hpp>
#include <lowfive/lowfive.hpp>
#include <obs/metrics.hpp>
#include <workflow/workflow.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <vector>

#include <unistd.h>

namespace {

constexpr std::size_t MiB = std::size_t(1) << 20;

std::uint64_t pool_hits() { return obs::Registry::global().counter("pool.hits").value(); }
std::uint64_t pool_misses() { return obs::Registry::global().counter("pool.misses").value(); }

/// A file tree with one dataset holding one pooled-class Deep piece.
std::shared_ptr<h5::Object> one_piece_tree(std::size_t bytes) {
    auto  root = std::make_shared<h5::Object>(h5::ObjectKind::File, "f");
    auto* d    = root->add_child(std::make_unique<h5::Object>(h5::ObjectKind::Dataset, "d"));
    h5::DataPiece piece;
    piece.owned = h5::take_piece_bytes(bytes);
    d->pieces.push_back(std::move(piece));
    return root;
}

} // namespace

TEST(BytePool, ExactSizeTakeAfterGiveReturnsSameBuffer) {
    h5::NativeVol vol; // a live VOL keeps the pool open
    const auto    live = h5::piece_pool_stats().live;
    auto          a    = h5::take_piece_bytes(2 * MiB);
    ASSERT_EQ(a.size(), 2 * MiB);
    const std::byte* p = a.data();
    h5::give_piece_bytes(std::move(a));
    EXPECT_EQ(h5::piece_pool_stats().held, 2 * MiB);
    EXPECT_EQ(obs::Registry::global().gauge("pool.bytes_held").value(),
              static_cast<std::int64_t>(2 * MiB));

    const auto hits = pool_hits();
    auto       b    = h5::take_piece_bytes(2 * MiB);
    EXPECT_EQ(b.data(), p) << "an exact-size take must reuse the pooled buffer";
    EXPECT_EQ(b.size(), 2 * MiB);
    EXPECT_EQ(pool_hits(), hits + 1);
    EXPECT_EQ(h5::piece_pool_stats().held, 0u);

    // no other size is served from it
    h5::give_piece_bytes(std::move(b));
    const auto misses = pool_misses();
    auto       other  = h5::take_piece_bytes(2 * MiB + 8);
    EXPECT_NE(other.data(), p);
    EXPECT_EQ(pool_misses(), misses + 1);
    h5::give_piece_bytes(std::move(other));
    EXPECT_EQ(h5::piece_pool_stats().live, live) << "every taken buffer went back";
}

TEST(BytePool, BuffersUnderTheFloorAreNotPooled) {
    h5::NativeVol vol;
    const auto    hits = pool_hits(), misses = pool_misses();
    auto          small = h5::take_piece_bytes(h5::piece_pool_floor - 1);
    ASSERT_EQ(small.size(), h5::piece_pool_floor - 1);
    h5::give_piece_bytes(std::move(small));
    EXPECT_EQ(h5::piece_pool_stats().held, 0u);
    EXPECT_EQ(pool_hits(), hits);
    EXPECT_EQ(pool_misses(), misses) << "sub-floor takes never consult the pool";

    // the floor itself is pooled
    h5::give_piece_bytes(h5::take_piece_bytes(h5::piece_pool_floor));
    EXPECT_EQ(h5::piece_pool_stats().held, h5::piece_pool_floor);
}

TEST(BytePool, SeededRandomTakesAndGivesStayUnderTheEarlierLivePeak) {
    std::size_t hits_seen = 0;
    for (unsigned seed = 1; seed <= 8; ++seed) {
        const auto base = h5::piece_pool_stats(); // the process's earlier peak
        ASSERT_EQ(base.held, 0u) << "no VOL is alive, so the pool must be empty";
        h5::NativeVol                       vol;
        std::mt19937                        rng(seed);
        std::vector<std::vector<std::byte>> out;
        // the test's own accounting of pooled-class bytes it holds
        std::size_t       live = base.live, peak = std::max(base.peak, base.live);
        const std::size_t sizes[] = {MiB / 2, MiB, MiB, 2 * MiB, 3 * MiB, 3 * MiB, 5 * MiB};
        const auto        hits0   = pool_hits();
        for (int step = 0; step < 300; ++step) {
            if (out.empty() || (out.size() < 6 && rng() % 2)) {
                const std::size_t n = sizes[rng() % std::size(sizes)];
                out.push_back(h5::take_piece_bytes(n));
                ASSERT_EQ(out.back().size(), n);
                if (n >= h5::piece_pool_floor) live += n;
            } else {
                const std::size_t k = rng() % out.size();
                if (out[k].size() >= h5::piece_pool_floor) live -= out[k].size();
                h5::give_piece_bytes(std::move(out[k]));
                out.erase(out.begin() + static_cast<std::ptrdiff_t>(k));
            }
            peak    = std::max(peak, live);
            auto st = h5::piece_pool_stats();
            ASSERT_EQ(st.live, live) << "seed " << seed << " step " << step;
            ASSERT_LE(st.held + live, peak) << "seed " << seed << " step " << step;
        }
        hits_seen += pool_hits() - hits0;
        for (auto& b : out) h5::give_piece_bytes(std::move(b));
    }
    EXPECT_GT(hits_seen, 0u) << "the workload must actually reuse pooled buffers";
    EXPECT_EQ(h5::piece_pool_stats().held, 0u);
}

TEST(BytePool, DrainsWhenTheLastVolIsDestroyedEvenWithAPinnedSnapshotAlive) {
    const std::size_t live0 = h5::piece_pool_stats().live;
    lowfive::mvcc::SnapshotPin held;
    {
        h5::NativeVol outer;
        {
            auto inner = std::make_shared<h5::NativeVol>();
            h5::give_piece_bytes(h5::take_piece_bytes(3 * MiB));
            inner.reset();
            EXPECT_EQ(h5::piece_pool_stats().held, 3 * MiB) << "one VOL is still alive";
        }

        // a published tree with one 2 MiB Deep piece, pinned past the VOL
        lowfive::mvcc::SnapshotStore store;
        store.publish("f", one_piece_tree(2 * MiB), {}, 0).release();
        held = store.pin("f");
        EXPECT_EQ(h5::piece_pool_stats().live, live0 + 2 * MiB);
    }
    EXPECT_EQ(h5::piece_pool_stats().held, 0u) << "the last VOL's destruction drains the pool";
    EXPECT_EQ(obs::Registry::global().gauge("pool.bytes_held").value(), 0);

    // the snapshot dies now: its buffer is freed, not pooled
    held.release();
    EXPECT_EQ(h5::piece_pool_stats().held, 0u);
    EXPECT_EQ(h5::piece_pool_stats().live, live0);
}

TEST(BytePool, SupersededTreesAreFreedOutsideTheMvccLeafMutex) {
    // a superseded or retired snapshot whose tree the store alone owns is
    // freed by publish / retire; its buffers reach the pool only after
    // the leaf mutex is released (the forbidden mvcc.leaf -> h5.pool edge)
    l5race::RaceConfig cfg;
    cfg.action = l5race::RaceConfig::Action::report;
    ASSERT_TRUE(l5race::arm(cfg));
    {
        h5::NativeVol                vol;
        lowfive::mvcc::SnapshotStore store;
        store.publish("f", one_piece_tree(2 * MiB), {}, 0).release();
        store.publish("f", one_piece_tree(2 * MiB), {}, 0).release(); // frees version 1
        EXPECT_EQ(h5::piece_pool_stats().held, 2 * MiB);
        store.retire("f"); // frees version 2
        EXPECT_EQ(h5::piece_pool_stats().held, 4 * MiB);
    }
    l5race::finalize();
    EXPECT_TRUE(l5race::last_race_diagnostics().empty());
}

TEST(BytePool, WritableFileReadWithHolesReadsZeroFromADirtyPooledBuffer) {
    const auto dir = std::filesystem::temp_directory_path()
                     / ("l5pool_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    h5::PfsModel::instance().configure(0, 0);
    {
        constexpr std::uint64_t n   = 2 * MiB / 8;
        auto                    vol = std::make_shared<h5::NativeVol>();
        h5::File                f   = h5::File::create((dir / "holes.h5").string(), vol);

        // a full read of a fully written dataset stages through a 2 MiB
        // pooled buffer and hands it back holding all-ones bytes
        auto                       full = f.create_dataset("full", h5::dt::uint64(), h5::Dataspace({n}));
        std::vector<std::uint64_t> ones(n, ~0ull);
        full.write(ones.data(), h5::Dataspace({n}));
        std::vector<std::uint64_t> back(n, 0);
        full.read(back.data(), h5::Dataspace({n}), h5::Dataspace({n}));
        ASSERT_EQ(back, ones);
        ASSERT_GE(h5::piece_pool_stats().held, 2 * MiB);

        // only the first quarter of this one is written (a sub-floor
        // piece, so the pooled buffer stays put): its full read gets the
        // dirty buffer back and must still read zeros in the hole
        constexpr std::uint64_t w    = n / 4;
        auto          part = f.create_dataset("part", h5::dt::uint64(), h5::Dataspace({n}));
        h5::Dataspace head({n});
        diy::Bounds   b(1);
        b.min[0] = 0;
        b.max[0] = static_cast<std::int64_t>(w);
        head.select_box(b);
        std::vector<std::uint64_t> vals(w);
        for (std::uint64_t i = 0; i < w; ++i) vals[i] = i * 3 + 1;
        part.write(vals.data(), head);

        const auto                 hits = pool_hits();
        std::vector<std::uint64_t> got(n, 7);
        part.read(got.data(), h5::Dataspace({n}), h5::Dataspace({n}));
        EXPECT_EQ(pool_hits(), hits + 1) << "the read must have reused the dirty buffer";
        for (std::uint64_t i = 0; i < w; ++i) ASSERT_EQ(got[i], i * 3 + 1) << i;
        for (std::uint64_t i = w; i < n; ++i) ASSERT_EQ(got[i], 0u) << i;
        f.close();
    }
    std::filesystem::remove_all(dir);
}

TEST(BytePool, SecondSameSizeWorkflowRoundHitsThePool) {
    // two rounds of create / write / close / drop of the same 2 MiB
    // dataset: the first round's piece goes back to the pool when its
    // file is dropped, and the second round's write reuses it
    constexpr std::uint64_t n = 2 * MiB / 8;
    std::vector<std::uint64_t> round_hits;
    workflow::run(
        {
            {"producer", 1,
             [&](workflow::Context& ctx) {
                 for (std::uint64_t r = 1; r <= 2; ++r) {
                     const auto hits = pool_hits();
                     h5::File   f    = h5::File::create("pool_rounds.h5", ctx.vol);
                     auto d = f.create_dataset("v", h5::dt::uint64(), h5::Dataspace({n}));
                     std::vector<std::uint64_t> vals(n);
                     for (std::uint64_t i = 0; i < n; ++i) vals[i] = r * n + i;
                     d.write(vals.data(), h5::Dataspace({n}));
                     round_hits.push_back(pool_hits() - hits);
                     f.close();
                     ctx.vol->drop_file("pool_rounds.h5");
                 }
             }},
            {"consumer", 1,
             [&](workflow::Context& ctx) {
                 for (std::uint64_t r = 1; r <= 2; ++r) {
                     h5::File f    = h5::File::open("pool_rounds.h5", ctx.vol);
                     auto     vals = f.open_dataset("v").read_vector<std::uint64_t>();
                     f.close();
                     ASSERT_EQ(vals.size(), n);
                     for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(vals[i], r * n + i) << i;
                 }
             }},
        },
        {workflow::Link{0, 1, "*"}});
    ASSERT_EQ(round_hits.size(), 2u);
    EXPECT_EQ(round_hits[1], 1u) << "the second round's write must reuse the first's buffer";
    EXPECT_EQ(h5::piece_pool_stats().held, 0u) << "nothing stays pooled after workflow::run";
}

TEST(BytePool, FileModeProducerStagingIsFreedBeforeTheFileIsReady) {
    // every producer rank frees its staging tree before the closing
    // barrier, so once rank 0 announces the file as ready no producer
    // piece is live: a consumer's read staging never overlaps them
    const auto path = (std::filesystem::temp_directory_path()
                       / ("l5pool_ready_" + std::to_string(::getpid()) + ".h5"))
                          .string();
    h5::PfsModel::instance().configure(0, 0);
    constexpr std::uint64_t n = 2 * MiB / 8; // per producer rank
    // earlier tests in this process may have dropped pooled-class buffers
    // without handing them back: count from here
    const std::size_t live0        = h5::piece_pool_stats().live;
    std::size_t       live_at_open = ~std::size_t(0);
    workflow::Options       opts;
    opts.mode = workflow::Mode::file();
    workflow::run(
        {
            {"producer", 2,
             [&](workflow::Context& ctx) {
                 h5::File f = h5::File::create(path, ctx.vol);
                 auto     d = f.create_dataset("v", h5::dt::uint64(), h5::Dataspace({2 * n}));
                 const auto    r = static_cast<std::uint64_t>(ctx.rank());
                 h5::Dataspace sel({2 * n});
                 diy::Bounds   b(1);
                 b.min[0] = static_cast<std::int64_t>(r * n);
                 b.max[0] = static_cast<std::int64_t>((r + 1) * n);
                 sel.select_box(b);
                 std::vector<std::uint64_t> vals(n);
                 for (std::uint64_t i = 0; i < n; ++i) vals[i] = r * n + i;
                 d.write(vals.data(), sel);
                 f.close();
             }},
            {"consumer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f   = h5::File::open(path, ctx.vol);
                 live_at_open = h5::piece_pool_stats().live;
                 auto vals    = f.open_dataset("v").read_vector<std::uint64_t>();
                 f.close();
                 ASSERT_EQ(vals.size(), 2 * n);
                 for (std::uint64_t i = 0; i < 2 * n; ++i) ASSERT_EQ(vals[i], i) << i;
             }},
        },
        {workflow::Link{0, 1, "*"}}, opts);
    EXPECT_EQ(live_at_open, live0) << "a producer rank still held its staging tree";
    std::filesystem::remove(path);
}
