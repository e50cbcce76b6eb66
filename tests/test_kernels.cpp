/// Property tests for the data-plane copy kernels: the width-specialized
/// kern:: copy primitives, byte identity of the production selection
/// kernels against the naive oracle across odd element widths, strided
/// and multi-run selections and degenerate selections, each run inline
/// and fanned out across the pool, the fused piece → destination copy
/// against its two-step oracle, and schedule-hash replay with the pool
/// forced on under the deterministic scheduler.

#include <h5/copy.hpp>
#include <h5/par.hpp>
#include <lowfive/lowfive.hpp>
#include <workflow/workflow.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

using namespace h5;

namespace {

/// Restore the process-wide pool knobs on scope exit so a failing
/// assertion cannot leak a setting into later tests.
struct KernelEnvGuard {
    bool        pool   = par::enabled();
    std::size_t thresh = par::parallel_threshold_bytes();
    ~KernelEnvGuard() {
        par::set_enabled(pool);
        par::set_parallel_threshold_bytes(thresh);
    }
};

/// The kernels' two execution modes: run `body(fan_out)` inline and,
/// when the pool has workers, again with every copy fanned out across it.
template <class F>
void in_both_modes(const KernelEnvGuard& guard, F&& body) {
    for (bool fan_out : {false, true}) {
        if (fan_out && par::workers() < 1) continue;
        par::set_enabled(fan_out);
        par::set_parallel_threshold_bytes(fan_out ? 1 : guard.thresh);
        body(fan_out);
    }
    par::set_enabled(guard.pool);
    par::set_parallel_threshold_bytes(guard.thresh);
}

std::vector<std::byte> pattern_buffer(std::size_t n, unsigned salt) {
    std::vector<std::byte> buf(n);
    for (std::size_t i = 0; i < n; ++i)
        buf[i] = static_cast<std::byte>((i * 131 + salt * 17 + 7) & 0xff);
    return buf;
}

/// Recursively split `domain` into random disjoint boxes.
void random_partition(std::mt19937& rng, const diy::Bounds& domain, int depth,
                      std::vector<diy::Bounds>& out) {
    bool can_split = false;
    for (int i = 0; i < domain.dim; ++i)
        if (domain.max[static_cast<std::size_t>(i)] - domain.min[static_cast<std::size_t>(i)] >= 2)
            can_split = true;
    if (depth == 0 || !can_split) {
        out.push_back(domain);
        return;
    }
    int axis;
    do {
        axis = static_cast<int>(rng() % static_cast<unsigned>(domain.dim));
    } while (domain.max[static_cast<std::size_t>(axis)] - domain.min[static_cast<std::size_t>(axis)] < 2);
    auto u   = static_cast<std::size_t>(axis);
    auto lo  = domain.min[u] + 1;
    auto cut = lo + static_cast<std::int64_t>(rng() % static_cast<unsigned>(domain.max[u] - lo));

    diy::Bounds left = domain, right = domain;
    left.max[u]  = cut;
    right.min[u] = cut;
    random_partition(rng, left, depth - 1, out);
    random_partition(rng, right, depth - 1, out);
}

Dataspace from_boxes(const Extent& dims, const std::vector<diy::Bounds>& boxes) {
    Dataspace sp(dims);
    sp.select_none();
    for (const auto& b : boxes) sp.add_box(b);
    return sp;
}

/// A random strided selection: a regular hyperslab with per-axis
/// start/stride/block drawn to fit `dims`.
Dataspace random_strided(std::mt19937& rng, const Extent& dims) {
    std::vector<std::uint64_t> start, stride, count, block;
    for (auto n : dims) {
        const std::uint64_t blk = 1 + rng() % std::max<std::uint64_t>(1, n / 3);
        const std::uint64_t st  = blk + rng() % 3;
        const std::uint64_t s0  = rng() % std::min<std::uint64_t>(n - blk + 1, 3);
        start.push_back(s0);
        stride.push_back(st);
        block.push_back(blk);
        count.push_back(1 + (n - s0 - blk) / st);
    }
    Dataspace sp(dims);
    sp.select_hyperslab(start, stride, count, block);
    return sp;
}

} // namespace

// --- kern:: copy primitives --------------------------------------------------

TEST(KernCopy, ByteIdentityAcrossSizesWithSentinels) {
    // every size class the dispatcher distinguishes: inline head/tail
    // (<= 64), the unrolled word loop, the SIMD main loop and its
    // overlapping tail, around every power-of-two boundary
    std::vector<std::size_t> sizes;
    for (std::size_t n = 0; n <= 70; ++n) sizes.push_back(n);
    for (std::size_t n : {127u, 128u, 129u, 255u, 256u, 257u, 1000u, 4095u, 4096u, 4097u})
        sizes.push_back(n);
    sizes.push_back((1u << 16) + 3);

    constexpr std::size_t guard = 32;
    for (std::size_t n : sizes) {
        const auto             src = pattern_buffer(n, static_cast<unsigned>(n));
        std::vector<std::byte> dst(n + 2 * guard, std::byte{0xEE});
        kern::copy(dst.data() + guard, src.data(), n);
        ASSERT_TRUE(std::equal(src.begin(), src.end(), dst.begin() + guard)) << "n=" << n;
        // the overlapping head/tail stores must stay inside [0, n)
        for (std::size_t i = 0; i < guard; ++i) {
            ASSERT_EQ(dst[i], std::byte{0xEE}) << "n=" << n << " leading guard " << i;
            ASSERT_EQ(dst[guard + n + i], std::byte{0xEE}) << "n=" << n << " trailing guard " << i;
        }
    }
    EXPECT_NE(kern::dispatch_name(), nullptr);
    EXPECT_GT(std::string(kern::dispatch_name()).size(), 0u);
}

TEST(KernCopy, StreamingPathAboveThreshold) {
    // 5 MiB crosses the non-temporal-store threshold (4 MiB)
    const std::size_t n   = (5u << 20) + 13;
    const auto        src = pattern_buffer(n, 5);
    std::vector<std::byte> dst(n);
    kern::copy(dst.data(), src.data(), n);
    EXPECT_EQ(src, dst);
}

TEST(KernCopy, SegmentsIncludingZeroLength) {
    const auto             src = pattern_buffer(4096, 9);
    std::vector<std::byte> dst(4096, std::byte{0});
    std::vector<std::byte> ref(4096, std::byte{0});

    const std::vector<kern::Seg> segs{
        {0, 100, 7},    // odd length, unaligned source
        {7, 0, 0},      // zero-length: must be a no-op
        {10, 2000, 65}, // just over the inline small-copy limit
        {100, 300, 1},  // single byte
        {200, 1024, 512},
    };
    kern::copy_segments(dst.data(), src.data(), segs.data(), segs.size());
    for (const auto& s : segs)
        std::memcpy(ref.data() + s.dst, src.data() + s.src, s.len);
    EXPECT_EQ(dst, ref);
}

// --- production kernels against the naive oracle ----------------------------

namespace {

/// Run extract_from_packed / scatter_into_packed / extract_via_mapping /
/// pack / unpack in both execution modes and compare byte-for-byte
/// against the outputs of the *_naive oracle entry points. `piece` must
/// cover `want`.
void check_against_oracle(const Dataspace& piece, const Dataspace& want, std::size_t elem) {
    KernelEnvGuard guard;

    const auto piece_packed = pattern_buffer(piece.npoints() * elem, 1);
    const auto full         = pattern_buffer(piece.extent_npoints() * elem, 2);

    std::vector<std::byte> ref_extract, ref_map;
    extract_from_packed_naive(piece, piece_packed.data(), want, elem, ref_extract);
    std::vector<std::byte> ref_scatter(piece_packed.size(), std::byte{0});
    scatter_into_packed_naive(piece, ref_scatter.data(), want, ref_extract.data(), elem);

    const std::uint64_t pad = 3;
    Dataspace           mem(Extent{piece.npoints() + 2 * pad});
    diy::Bounds         mb(1);
    mb.min[0] = static_cast<std::int64_t>(pad);
    mb.max[0] = static_cast<std::int64_t>(pad + piece.npoints());
    mem.select_box(mb);
    const auto membuf = pattern_buffer((piece.npoints() + 2 * pad) * elem, 3);
    extract_via_mapping_naive(piece, mem, membuf.data(), want, elem, ref_map);

    in_both_modes(guard, [&](bool fan_out) {
        std::vector<std::byte> got;
        extract_from_packed(piece, piece_packed.data(), want, elem, got);
        ASSERT_EQ(got, ref_extract) << "elem=" << elem << " fan_out=" << fan_out;

        std::vector<std::byte> dst(piece_packed.size(), std::byte{0});
        scatter_into_packed(piece, dst.data(), want, got.data(), elem);
        ASSERT_EQ(dst, ref_scatter) << "elem=" << elem << " fan_out=" << fan_out;

        std::vector<std::byte> map_got;
        extract_via_mapping(piece, mem, membuf.data(), want, elem, map_got);
        ASSERT_EQ(map_got, ref_map) << "elem=" << elem << " fan_out=" << fan_out;

        // pack/unpack round trip through the same Seg machinery
        std::vector<std::byte> packed(piece.npoints() * elem);
        pack_selection(piece, full.data(), elem, packed.data());
        std::vector<std::byte> full2(full.size(), std::byte{0});
        unpack_selection(piece, packed.data(), elem, full2.data());
        std::vector<std::byte> repacked(packed.size(), std::byte{0xAB});
        pack_selection(piece, full2.data(), elem, repacked.data());
        ASSERT_EQ(repacked, packed) << "elem=" << elem << " fan_out=" << fan_out;
    });
}

/// A random piece (a shuffled partition of the whole extent, so it covers
/// any `want`) and a random `want`: a multi-run subset of an independent
/// partition, or a strided hyperslab.
void check_modes_identical(std::mt19937& rng, std::size_t elem) {
    const Extent dims{8 + rng() % 40, 4 + rng() % 32};
    diy::Bounds  domain(2);
    domain.max = {static_cast<std::int64_t>(dims[0]), static_cast<std::int64_t>(dims[1])};

    std::vector<diy::Bounds> pboxes;
    random_partition(rng, domain, 4, pboxes);
    std::shuffle(pboxes.begin(), pboxes.end(), rng);
    const Dataspace piece = from_boxes(dims, pboxes);

    Dataspace want(dims);
    if (rng() % 3 == 0) {
        want = random_strided(rng, dims);
    } else {
        std::vector<diy::Bounds> wboxes;
        random_partition(rng, domain, 5, wboxes);
        want.select_none();
        for (const auto& b : wboxes)
            if (rng() % 2) want.add_box(b);
    }
    check_against_oracle(piece, want, elem);
}

} // namespace

class KernelModeProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(KernelModeProperty, AllModesByteIdenticalOddWidths) {
    // element widths 1..8 cover every 1–7 byte tail the width-specialized
    // kernels have to handle (and the word-multiple case)
    std::mt19937 rng(GetParam());
    for (std::size_t elem = 1; elem <= 8; ++elem) check_modes_identical(rng, elem);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelModeProperty, ::testing::Range(1u, 13u));

class CoalescedKernelProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(CoalescedKernelProperty, KernelsByteMatchNaiveReference) {
    // full-width row bands: every band coalesces into one multi-row run,
    // so want runs straddle several piece runs and vice versa, and the
    // shuffled piece bands put its packed layout out of file order
    std::mt19937 rng(GetParam());
    const Extent       dims{24 + rng() % 40, 16 + rng() % 32};
    const std::int64_t nx = static_cast<std::int64_t>(dims[0]);
    const std::int64_t ny = static_cast<std::int64_t>(dims[1]);
    auto               bands = [&] {
        std::vector<diy::Bounds> out;
        for (std::int64_t x = 0; x < nx;) {
            const std::int64_t h = std::min<std::int64_t>(1 + rng() % 7, nx - x);
            diy::Bounds        b(2);
            b.min = {x, 0};
            b.max = {x + h, ny};
            out.push_back(b);
            x += h;
        }
        return out;
    };
    auto pboxes = bands();
    std::shuffle(pboxes.begin(), pboxes.end(), rng);
    std::vector<diy::Bounds> wboxes;
    for (const auto& b : bands())
        if (rng() % 2) wboxes.push_back(b);
    check_against_oracle(from_boxes(dims, pboxes), from_boxes(dims, wboxes), 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescedKernelProperty, ::testing::Range(1u, 25u));

TEST(KernelModeEdge, EmptySelectionAllModes) {
    KernelEnvGuard guard;
    const Extent   dims{16, 16};
    Dataspace      piece(dims); // everything selected
    Dataspace      want(dims);
    want.select_none();

    const auto piece_packed = pattern_buffer(piece.npoints() * 4, 11);
    in_both_modes(guard, [&](bool fan_out) {
        std::vector<std::byte> out;
        extract_from_packed(piece, piece_packed.data(), want, 4, out);
        EXPECT_TRUE(out.empty()) << "fan_out=" << fan_out;

        auto      dst = piece_packed;
        std::byte dummy{};
        scatter_into_packed(piece, dst.data(), want, &dummy, 4);
        EXPECT_EQ(dst, piece_packed) << "fan_out=" << fan_out; // untouched
    });
}

TEST(KernelModeEdge, SingleElementRowsOddWidths) {
    // a checkerboard of 1×1 boxes: every coalesced run is one element, so
    // for elem 1..7 every copy is a sub-word tail
    KernelEnvGuard guard;
    const Extent   dims{8, 8};
    Dataspace      piece(dims);
    piece.select_none();
    std::vector<diy::Bounds> cells;
    for (std::int64_t x = 0; x < 8; ++x)
        for (std::int64_t y = 0; y < 8; ++y) {
            diy::Bounds b(2);
            b.min = {x, y};
            b.max = {x + 1, y + 1};
            if ((x + y) % 2 == 0) piece.add_box(b);
            if ((x + y) % 4 == 0) cells.push_back(b);
        }
    const Dataspace want = from_boxes(dims, cells);

    for (std::size_t elem = 1; elem <= 7; ++elem) {
        const auto packed = pattern_buffer(piece.npoints() * elem, static_cast<unsigned>(elem));
        std::vector<std::byte> ref;
        extract_from_packed_naive(piece, packed.data(), want, elem, ref);
        ASSERT_EQ(ref.size(), want.npoints() * elem);
        std::vector<std::byte> dst_ref(packed.size(), std::byte{0});
        scatter_into_packed_naive(piece, dst_ref.data(), want, ref.data(), elem);

        in_both_modes(guard, [&](bool fan_out) {
            std::vector<std::byte> got;
            extract_from_packed(piece, packed.data(), want, elem, got);
            ASSERT_EQ(got, ref) << "elem=" << elem << " fan_out=" << fan_out;

            std::vector<std::byte> dst_got(packed.size(), std::byte{0});
            scatter_into_packed(piece, dst_got.data(), want, got.data(), elem);
            ASSERT_EQ(dst_got, dst_ref) << "elem=" << elem << " fan_out=" << fan_out;
        });
    }
}

// --- fused piece → destination copy -----------------------------------------

namespace {

/// copy_piece_into_packed, inline and fanned out across the pool, against
/// the two-step naive oracle: extract `sub` from the piece, scatter it
/// into the destination.
void check_fused_copy(std::mt19937& rng, std::size_t elem) {
    KernelEnvGuard guard;

    const Extent dims{6 + rng() % 30, 4 + rng() % 24};
    diy::Bounds  domain(2);
    domain.max = {static_cast<std::int64_t>(dims[0]), static_cast<std::int64_t>(dims[1])};

    // piece and destination: random multi-box selections, or strided ones
    auto random_space = [&](int depth) {
        if (rng() % 3 == 0) return random_strided(rng, dims);
        std::vector<diy::Bounds> boxes;
        random_partition(rng, domain, depth, boxes);
        std::shuffle(boxes.begin(), boxes.end(), rng);
        std::vector<diy::Bounds> kept;
        for (const auto& b : boxes)
            if (rng() % 4) kept.push_back(b);
        return from_boxes(dims, kept);
    };
    const Dataspace piece = random_space(4);
    const Dataspace dest  = random_space(5);

    // sub: part of what both cover, optionally thinned by a stride
    auto common = intersect_selections(piece, dest);
    if (rng() % 2)
        common = intersect_selections(from_boxes(dims, common), random_strided(rng, dims));
    std::vector<diy::Bounds> picked;
    for (const auto& b : common)
        if (rng() % 5) picked.push_back(b);
    std::shuffle(picked.begin(), picked.end(), rng);
    const Dataspace sub = from_boxes(dims, picked);

    const auto piece_packed = pattern_buffer(piece.npoints() * elem, 5);
    const auto dest_init    = pattern_buffer(dest.npoints() * elem, 6); // poison

    std::vector<std::byte> staged;
    extract_from_packed_naive(piece, piece_packed.data(), sub, elem, staged);
    auto ref = dest_init;
    scatter_into_packed_naive(dest, ref.data(), sub, staged.data(), elem);

    in_both_modes(guard, [&](bool fan_out) {
        auto got = dest_init;
        copy_piece_into_packed(piece, piece_packed.data(), sub, dest, got.data(), elem);
        ASSERT_EQ(got, ref) << "elem=" << elem << " fan_out=" << fan_out
                            << " piece=" << piece.str() << " sub=" << sub.str()
                            << " dest=" << dest.str();
    });
}

} // namespace

class FusedCopyProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(FusedCopyProperty, MatchesExtractThenScatterInAllModes) {
    std::mt19937 rng(GetParam() * 7919u);
    for (std::size_t elem : {1u, 3u, 4u, 8u})
        for (int round = 0; round < 4; ++round) check_fused_copy(rng, elem);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedCopyProperty, ::testing::Range(1u, 13u));

TEST(FusedCopy, ThrowsOnSubNotCoveredInAllModes) {
    KernelEnvGuard guard;
    const Extent   dims{8, 8};
    auto           rows = [&](std::int64_t lo, std::int64_t hi) {
        diy::Bounds b(2);
        b.min = {lo, 0};
        b.max = {hi, 8};
        return from_boxes(dims, {b});
    };
    const Dataspace piece = rows(0, 4);
    const Dataspace dest  = rows(2, 8);
    const auto      piece_packed = pattern_buffer(piece.npoints() * 4, 9);
    std::vector<std::byte> out(dest.npoints() * 4);

    in_both_modes(guard, [&](bool fan_out) {
        // rows 4..5 lie in dest but not in the piece
        EXPECT_THROW(copy_piece_into_packed(piece, piece_packed.data(), rows(2, 6), dest,
                                            out.data(), 4),
                     h5::Error)
            << "fan_out=" << fan_out;
        // rows 0..1 lie in the piece but not in dest
        EXPECT_THROW(copy_piece_into_packed(piece, piece_packed.data(), rows(0, 2), dest,
                                            out.data(), 4),
                     h5::Error)
            << "fan_out=" << fan_out;
        // a sub over a different extent never matches either layout
        Dataspace other(Extent{8, 9});
        EXPECT_THROW(
            copy_piece_into_packed(piece, piece_packed.data(), other, dest, out.data(), 4),
            h5::Error)
            << "fan_out=" << fan_out;
        // the covered part alone copies fine
        EXPECT_NO_THROW(copy_piece_into_packed(piece, piece_packed.data(), rows(2, 4), dest,
                                               out.data(), 4))
            << "fan_out=" << fan_out;
    });
}

// --- pool identity -----------------------------------------------------------

TEST(KernelPool, PoolOnOffByteIdentity) {
    if (par::workers() < 1) GTEST_SKIP() << "pool disabled (L5_DATA_THREADS=0 or 1 hw thread)";
    KernelEnvGuard guard;

    // 2 MiB across many runs: with a 1-byte threshold this fans out into
    // multiple chunks; the result must match the inline (pool-off) path
    const Extent dims{512, 1024}; // u32 elements -> 2 MiB full extent
    Dataspace    piece(dims);
    piece.select_none();
    for (std::int64_t x = 0; x < 512; x += 2) {
        diy::Bounds b(2);
        b.min = {x, 0};
        b.max = {x + 1, 1024};
        piece.add_box(b);
    }
    Dataspace want(dims);
    want.select_none();
    for (std::int64_t x = 0; x < 512; x += 4) {
        diy::Bounds b(2);
        b.min = {x, 128};
        b.max = {x + 1, 900};
        want.add_box(b);
    }
    const std::size_t elem   = 4;
    const auto        packed = pattern_buffer(piece.npoints() * elem, 21);

    par::set_enabled(false);
    std::vector<std::byte> ref;
    extract_from_packed(piece, packed.data(), want, elem, ref);
    std::vector<std::byte> dst_ref(packed.size(), std::byte{0});
    scatter_into_packed(piece, dst_ref.data(), want, ref.data(), elem);

    par::set_enabled(true);
    par::set_parallel_threshold_bytes(1);
    std::vector<std::byte> got;
    extract_from_packed(piece, packed.data(), want, elem, got);
    ASSERT_EQ(got, ref);
    std::vector<std::byte> dst_got(packed.size(), std::byte{0});
    scatter_into_packed(piece, dst_got.data(), want, got.data(), elem);
    ASSERT_EQ(dst_got, dst_ref);
}

TEST(KernelPool, ParallelForExceptionPropagates) {
    if (par::workers() < 1) GTEST_SKIP() << "pool disabled";
    KernelEnvGuard guard;
    par::set_enabled(true);
    EXPECT_THROW(
        par::parallel_for(8,
                          [](std::size_t i) {
                              if (i == 5) throw std::runtime_error("chunk failed");
                          }),
        std::runtime_error);
    // the pool must still be usable after a failed job
    std::atomic<int> hits{0};
    par::parallel_for(8, [&](std::size_t) { hits.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(hits.load(), 8);
}

// --- deterministic replay with the pool enabled ------------------------------

namespace {

/// The canonical serve-plane workflow with every transfer forced through
/// the pool: the schedule hash must replay exactly (pool participants
/// spawn/join at deterministic points).
std::uint64_t pooled_replay_run(std::uint64_t seed) {
    workflow::Options opts;
    opts.mode = workflow::Mode::in_situ();
    simmpi::SchedConfig sc;
    sc.seed            = seed;
    sc.policy          = simmpi::SchedConfig::Policy::random;
    sc.depth           = 3;
    opts.runtime.sched = sc;

    const h5::Extent dims{24, 24};
    workflow::run(
        {
            {"producer", 2,
             [&](workflow::Context& ctx) {
                 h5::File f = h5::File::create("pool_replay.h5", ctx.vol);
                 auto d = f.create_dataset("g", h5::dt::uint64(), h5::Dataspace(dims));
                 diy::Bounds domain(2);
                 domain.max = {24, 24};
                 diy::RegularDecomposer dec(domain, ctx.size());
                 auto          mine = dec.block_bounds(ctx.rank());
                 h5::Dataspace sel(dims);
                 sel.select_box(mine);
                 std::vector<std::uint64_t> vals(sel.npoints());
                 std::size_t                k = 0;
                 for (auto x = mine.min[0]; x < mine.max[0]; ++x)
                     for (auto y = mine.min[1]; y < mine.max[1]; ++y)
                         vals[k++] = static_cast<std::uint64_t>(x * 24 + y);
                 d.write(vals.data(), sel);
                 f.close();
             }},
            {"consumer", 2,
             [&](workflow::Context& ctx) {
                 h5::File f    = h5::File::open("pool_replay.h5", ctx.vol);
                 auto     vals = f.open_dataset("g").read_vector<std::uint64_t>();
                 for (std::size_t i = 0; i < vals.size(); ++i)
                     ASSERT_EQ(vals[i], i) << "seed " << seed;
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}}, opts);
    return simmpi::last_schedule_hash();
}

} // namespace

TEST(KernelPool, ScheduleHashReplaysWithPoolEnabled) {
    if (par::workers() < 1) GTEST_SKIP() << "pool disabled";
    KernelEnvGuard guard;
    par::set_enabled(true);
    par::set_parallel_threshold_bytes(1); // every transfer fans out

    for (std::uint64_t seed : {1ull, 7ull, 23ull}) {
        const auto a = pooled_replay_run(seed);
        const auto b = pooled_replay_run(seed);
        EXPECT_NE(a, 0u) << "seed " << seed << ": scheduler did not run";
        EXPECT_EQ(a, b) << "seed " << seed << ": schedule failed to replay with pool on";
    }
}
