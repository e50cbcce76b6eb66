/// Tests for the wire codec (lowfive::codec): frame round trips over
/// seeded-random and adversarial buffers, the shuffle transform, the
/// LZ4-style block format's malformed-input handling, the WireModel
/// token bucket, and the end-to-end compressed query path.

#include <lowfive/codec.hpp>
#include <lowfive/lowfive.hpp>
#include <obs/metrics.hpp>
#include <workflow/workflow.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

using namespace lowfive::codec;

namespace {

std::vector<std::byte> roundtrip(const std::vector<std::byte>& src, std::size_t elem,
                                 Method* chosen = nullptr) {
    std::vector<std::byte> frame;
    const std::size_t      fsz = compress_frame(src.data(), src.size(), elem, frame, chosen);
    EXPECT_EQ(fsz, frame.size());
    EXPECT_EQ(frame_raw_size(frame.data(), frame.size()), src.size());
    std::vector<std::byte> dst(src.size());
    decompress_frame(frame.data(), frame.size(), dst.data());
    return dst;
}

} // namespace

TEST(Codec, RoundTripCompressibleTypedData) {
    // an iota of u64s: high bytes near-constant, so the shuffled stream
    // compresses well — the frame must be much smaller than the input
    std::vector<std::uint64_t> vals(8192);
    for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = i;
    std::vector<std::byte> src(vals.size() * 8);
    std::memcpy(src.data(), vals.data(), src.size());

    Method                 chosen;
    std::vector<std::byte> frame;
    const std::size_t      fsz = compress_frame(src.data(), src.size(), 8, frame, &chosen);
    EXPECT_EQ(chosen, Method::shuffle_lz4);
    EXPECT_LT(fsz, src.size() / 4) << "iota u64 should compress >4x";

    std::vector<std::byte> dst(src.size());
    decompress_frame(frame.data(), frame.size(), dst.data());
    EXPECT_EQ(dst, src);
}

TEST(Codec, RoundTripAllEqualBuffer) {
    std::vector<std::byte> src(1 << 16, std::byte{0x5A});
    Method                 chosen;
    const auto             back = roundtrip(src, 4, &chosen);
    EXPECT_EQ(back, src);
    EXPECT_NE(chosen, Method::raw) << "constant buffer must compress";
}

TEST(Codec, RoundTripIncompressibleFallsBackToRaw) {
    std::mt19937           rng(99);
    std::vector<std::byte> src(1 << 15);
    for (auto& b : src) b = static_cast<std::byte>(rng());
    Method     chosen;
    const auto back = roundtrip(src, 8, &chosen);
    EXPECT_EQ(back, src);
    EXPECT_EQ(chosen, Method::raw) << "random bytes must store verbatim";
}

TEST(Codec, RoundTripEmptyAndTinyBuffers) {
    for (std::size_t n : {0u, 1u, 2u, 3u, 11u, 12u, 13u, 63u, 64u, 65u}) {
        std::vector<std::byte> src(n);
        for (std::size_t i = 0; i < n; ++i) src[i] = static_cast<std::byte>(i * 7);
        EXPECT_EQ(roundtrip(src, 1), src) << "n=" << n;
        EXPECT_EQ(roundtrip(src, 8), src) << "n=" << n; // 8 may not divide n: lz4 path
    }
}

class CodecFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(CodecFuzz, SeededRandomRoundTrips) {
    std::mt19937 rng(GetParam());
    for (int iter = 0; iter < 40; ++iter) {
        const std::size_t n    = rng() % (1u << 16);
        const std::size_t elem = std::vector<std::size_t>{1, 2, 3, 4, 6, 8, 16}[rng() % 7];

        std::vector<std::byte> src(n);
        switch (rng() % 4) {
            case 0: // uniform random (incompressible)
                for (auto& b : src) b = static_cast<std::byte>(rng());
                break;
            case 1: // all equal
                std::fill(src.begin(), src.end(), static_cast<std::byte>(rng()));
                break;
            case 2: // low-entropy ramp (typical numeric data)
                for (std::size_t i = 0; i < n; ++i)
                    src[i] = static_cast<std::byte>((i / 16) & 0xff);
                break;
            default: // repeated short motif — exercises overlapping matches
                for (std::size_t i = 0; i < n; ++i)
                    src[i] = static_cast<std::byte>("abcdb"[i % 5]);
                break;
        }
        ASSERT_EQ(roundtrip(src, elem), src) << "n=" << n << " elem=" << elem;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Range(1u, 9u));

TEST(Codec, ShuffleRoundTripAndLayout) {
    const std::size_t      elem = 4, count = 256;
    std::vector<std::byte> src(elem * count);
    for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::byte>(i & 0xff);

    std::vector<std::byte> shuf(src.size()), back(src.size());
    shuffle(src.data(), src.size(), elem, shuf.data());
    // k-th bytes of all elements are adjacent
    for (std::size_t k = 0; k < elem; ++k)
        for (std::size_t i = 0; i < count; ++i)
            ASSERT_EQ(shuf[k * count + i], src[i * elem + k]);
    unshuffle(shuf.data(), shuf.size(), elem, back.data());
    EXPECT_EQ(back, src);
}

TEST(Codec, Lz4CapOverflowReturnsZero) {
    std::mt19937           rng(7);
    std::vector<std::byte> src(4096);
    for (auto& b : src) b = static_cast<std::byte>(rng());
    std::vector<std::byte> dst(64); // far too small for incompressible input
    EXPECT_EQ(lz4_compress(src.data(), src.size(), dst.data(), dst.size()), 0u);
}

// --- malformed input ---------------------------------------------------------

TEST(CodecMalformed, FrameHeaderValidation) {
    std::vector<std::byte> src(256, std::byte{0x11});
    std::vector<std::byte> frame;
    compress_frame(src.data(), src.size(), 4, frame);
    std::vector<std::byte> dst(src.size());

    // shorter than a header
    EXPECT_THROW(frame_raw_size(frame.data(), frame_header_bytes - 1), CodecError);

    auto corrupt = [&](std::size_t off, std::byte v) {
        auto bad = frame;
        bad[off] = v;
        EXPECT_THROW(decompress_frame(bad.data(), bad.size(), dst.data()), CodecError)
            << "offset " << off;
    };
    corrupt(0, std::byte{0x00});  // magic
    corrupt(4, std::byte{0xFF});  // version
    corrupt(5, std::byte{0x7F});  // unknown method
    corrupt(16, std::byte{0xFF}); // payload_size != frame_size - header

    // truncated frame: header claims more payload than present
    EXPECT_THROW(decompress_frame(frame.data(), frame.size() - 1, dst.data()), CodecError);

    // shuffled frame with an element width that does not divide raw_size
    auto bad = frame;
    ASSERT_EQ(static_cast<std::uint8_t>(bad[5]),
              static_cast<std::uint8_t>(Method::shuffle_lz4));
    bad[6] = std::byte{0x03}; // elem = 3, raw_size = 256
    bad[7] = std::byte{0x00};
    EXPECT_THROW(decompress_frame(bad.data(), bad.size(), dst.data()), CodecError);
}

TEST(CodecMalformed, Lz4StreamValidation) {
    std::vector<std::byte> dst(64);

    // truncated length extension: token says lit=15, no extension byte
    {
        const std::byte stream[] = {std::byte{0xF0}};
        EXPECT_THROW(lz4_decompress(stream, 1, dst.data(), 64), CodecError);
    }
    // literal run past input: token says 4 literals, only 2 present
    {
        const std::byte stream[] = {std::byte{0x40}, std::byte{'a'}, std::byte{'b'}};
        EXPECT_THROW(lz4_decompress(stream, 3, dst.data(), 64), CodecError);
    }
    // literal run past output
    {
        const std::byte stream[] = {std::byte{0x40}, std::byte{'a'}, std::byte{'b'},
                                    std::byte{'c'}, std::byte{'d'}};
        EXPECT_THROW(lz4_decompress(stream, 5, dst.data(), 2), CodecError);
    }
    // offset zero
    {
        const std::byte stream[] = {std::byte{0x10}, std::byte{'a'}, std::byte{0x00},
                                    std::byte{0x00}};
        EXPECT_THROW(lz4_decompress(stream, 4, dst.data(), 64), CodecError);
    }
    // offset reaching before the start of the output
    {
        const std::byte stream[] = {std::byte{0x10}, std::byte{'a'}, std::byte{0x05},
                                    std::byte{0x00}};
        EXPECT_THROW(lz4_decompress(stream, 4, dst.data(), 64), CodecError);
    }
    // truncated offset (one byte instead of two)
    {
        const std::byte stream[] = {std::byte{0x10}, std::byte{'a'}, std::byte{0x01}};
        EXPECT_THROW(lz4_decompress(stream, 3, dst.data(), 64), CodecError);
    }
    // match run past output (raw_n too small for literal + 4-byte match)
    {
        const std::byte stream[] = {std::byte{0x10}, std::byte{'a'}, std::byte{0x01},
                                    std::byte{0x00}};
        EXPECT_THROW(lz4_decompress(stream, 4, dst.data(), 3), CodecError);
    }
    // decoded size mismatch: valid stream, wrong claimed raw size
    {
        const std::byte stream[] = {std::byte{0x20}, std::byte{'a'}, std::byte{'b'}};
        EXPECT_THROW(lz4_decompress(stream, 3, dst.data(), 64), CodecError);
    }
    // a well-formed overlapping match decodes correctly: 1 literal then a
    // 4-byte match at offset 1 replicates it (RLE)
    {
        const std::byte stream[] = {std::byte{0x10}, std::byte{'x'}, std::byte{0x01},
                                    std::byte{0x00}};
        std::vector<std::byte> out(5);
        lz4_decompress(stream, 4, out.data(), 5);
        EXPECT_EQ(out, std::vector<std::byte>(5, std::byte{'x'}));
    }
}

// --- WireModel ---------------------------------------------------------------

TEST(WireModel, ChargesBytesAndResets) {
    auto& wm = WireModel::instance();
    const double saved = wm.bandwidth_MBps();
    wm.reset_stats();

    wm.configure(0); // off: free charges, no sleeping
    wm.charge(1 << 20);
    wm.charge(123);
    EXPECT_EQ(wm.bytes_charged(), (1u << 20) + 123u);

    // fast budget: the charge must still be accounted (sleep ~1 ms)
    wm.configure(1000.0);
    wm.charge(1 << 20);
    EXPECT_EQ(wm.bytes_charged(), 2 * (1u << 20) + 123u);

    wm.reset_stats();
    EXPECT_EQ(wm.bytes_charged(), 0u);
    wm.configure(saved);
}

// --- end-to-end compressed query path ----------------------------------------

TEST(CodecEndToEnd, CompressedReadByteIdentical) {
    // consumer advertises compression for every dataset; the producer's
    // serve side must frame each piece and the consumer must reassemble
    // a byte-identical buffer, with the wire carrying fewer bytes than
    // the payload (iota compresses well)
    const std::uint64_t total = 1u << 15; // 256 KiB of u64 across 2 producers
    workflow::Options   opts;
    opts.mode = workflow::Mode::in_situ();
    workflow::run(
        {
            {"producer", 2,
             [&](workflow::Context& ctx) {
                 ctx.vol->set_compress_min_bytes(64);
                 h5::File f = h5::File::create("codec.h5", ctx.vol);
                 auto d = f.create_dataset("v", h5::dt::uint64(), h5::Dataspace({total}));
                 const auto    per = total / static_cast<std::uint64_t>(ctx.size());
                 h5::Dataspace sel({total});
                 diy::Bounds   b(1);
                 b.min[0] = static_cast<std::int64_t>(per) * ctx.rank();
                 b.max[0] = static_cast<std::int64_t>(per) * (ctx.rank() + 1);
                 sel.select_box(b);
                 std::vector<std::uint64_t> vals(sel.npoints());
                 for (std::uint64_t i = 0; i < vals.size(); ++i)
                     vals[i] = static_cast<std::uint64_t>(b.min[0]) + i;
                 d.write(vals.data(), sel);
                 f.close(); // serves the consumer's compressed queries
                 const auto st = ctx.vol->stats();
                 EXPECT_GT(st.n_compressed_pieces, 0u);
                 EXPECT_GT(st.bytes_served, 0u);
                 EXPECT_LT(st.bytes_wire, st.bytes_served)
                     << "compressed replies should shrink the wire";
             }},
            {"consumer", 1,
             [&](workflow::Context& ctx) {
                 ctx.vol->set_compress("*", "*");
                 h5::File f    = h5::File::open("codec.h5", ctx.vol);
                 auto     vals = f.open_dataset("v").read_vector<std::uint64_t>();
                 ASSERT_EQ(vals.size(), total);
                 for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(vals[i], i);
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}}, opts);
}

// --- zero-copy serve path (enc == 2 aliased payloads) -------------------------

TEST(ZeroCopyServe, FullPieceReadAliasesBuffer) {
    // a whole-piece read above the threshold goes out as an aliased
    // payload message (no serve-side copy); the consumer must still see
    // byte-identical data
    const std::uint64_t total = 1u << 15; // 256 KiB of u64
    workflow::run(
        {
            {"producer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f = h5::File::create("zc.h5", ctx.vol);
                 auto d = f.create_dataset("v", h5::dt::uint64(), h5::Dataspace({total}));
                 std::vector<std::uint64_t> vals(total);
                 for (std::uint64_t i = 0; i < total; ++i) vals[i] = i * 3 + 1;
                 d.write(vals.data(), h5::Dataspace({total}));
                 f.close();
                 const auto st = ctx.vol->stats();
                 EXPECT_GT(st.n_zero_copy_pieces, 0u);
                 EXPECT_EQ(st.n_compressed_pieces, 0u);
             }},
            {"consumer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f    = h5::File::open("zc.h5", ctx.vol);
                 auto     vals = f.open_dataset("v").read_vector<std::uint64_t>();
                 ASSERT_EQ(vals.size(), total);
                 for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(vals[i], i * 3 + 1);
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}});
}

TEST(ZeroCopyServe, BelowThresholdStaysInline) {
    // pieces under zero_copy_min_bytes ride inline in the reply header
    const std::uint64_t total = 512; // 4 KiB < 64 KiB default threshold
    workflow::run(
        {
            {"producer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f = h5::File::create("zc_small.h5", ctx.vol);
                 auto d = f.create_dataset("v", h5::dt::uint64(), h5::Dataspace({total}));
                 std::vector<std::uint64_t> vals(total);
                 for (std::uint64_t i = 0; i < total; ++i) vals[i] = i;
                 d.write(vals.data(), h5::Dataspace({total}));
                 f.close();
                 EXPECT_EQ(ctx.vol->stats().n_zero_copy_pieces, 0u);
             }},
            {"consumer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f    = h5::File::open("zc_small.h5", ctx.vol);
                 auto     vals = f.open_dataset("v").read_vector<std::uint64_t>();
                 for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(vals[i], i);
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}});
}

TEST(ZeroCopyServe, CompressionTakesPrecedence) {
    // when the consumer negotiated compression for a dataset, eligible
    // pieces are framed rather than aliased: the wire budget outranks
    // the serve-side copy
    const std::uint64_t total = 1u << 15;
    workflow::run(
        {
            {"producer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f = h5::File::create("zc_comp.h5", ctx.vol);
                 auto d = f.create_dataset("v", h5::dt::uint64(), h5::Dataspace({total}));
                 std::vector<std::uint64_t> vals(total);
                 for (std::uint64_t i = 0; i < total; ++i) vals[i] = i;
                 d.write(vals.data(), h5::Dataspace({total}));
                 f.close();
                 const auto st = ctx.vol->stats();
                 EXPECT_EQ(st.n_zero_copy_pieces, 0u);
                 EXPECT_GT(st.n_compressed_pieces, 0u);
             }},
            {"consumer", 1,
             [&](workflow::Context& ctx) {
                 ctx.vol->set_compress("*", "*");
                 h5::File f    = h5::File::open("zc_comp.h5", ctx.vol);
                 auto     vals = f.open_dataset("v").read_vector<std::uint64_t>();
                 for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(vals[i], i);
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}});
}

TEST(ZeroCopyServe, PartialCoverageHolesReadZero) {
    // the producer writes only the first half of the dataset; a read of
    // the whole extent receives the written half as an aliased payload
    // (sub equals the piece) and must still fill the unwritten half with
    // zeros — the direct consumer path's lazy-fill fallback
    const std::uint64_t total = 1u << 15;
    const std::uint64_t half  = total / 2;
    workflow::run(
        {
            {"producer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f = h5::File::create("zc_holes.h5", ctx.vol);
                 auto d = f.create_dataset("v", h5::dt::uint64(), h5::Dataspace({total}));
                 h5::Dataspace sel({total});
                 diy::Bounds   b(1);
                 b.min[0] = 0;
                 b.max[0] = static_cast<std::int64_t>(half);
                 sel.select_box(b);
                 std::vector<std::uint64_t> vals(half);
                 for (std::uint64_t i = 0; i < half; ++i) vals[i] = i + 7;
                 d.write(vals.data(), sel);
                 f.close();
                 EXPECT_GT(ctx.vol->stats().n_zero_copy_pieces, 0u);
             }},
            {"consumer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f = h5::File::open("zc_holes.h5", ctx.vol);
                 // poisoned destination: every byte must be overwritten
                 // (data or zero fill), nothing may leak through
                 std::vector<std::uint64_t> vals(total, ~0ull);
                 auto d = f.open_dataset("v");
                 d.read(vals.data(), h5::Dataspace({total}), h5::Dataspace({total}));
                 for (std::uint64_t i = 0; i < half; ++i) ASSERT_EQ(vals[i], i + 7);
                 for (std::uint64_t i = half; i < total; ++i) ASSERT_EQ(vals[i], 0u);
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}});
}

TEST(ZeroCopyServe, ShallowPiecesServeWithoutAliasing) {
    // set_zerocopy (user-buffer ownership) is the *write-side* zero-copy:
    // the piece references user memory with no packed vector to alias on
    // the wire, so the serve-side zero-copy must decline and extract
    const std::uint64_t total = 1u << 15;
    workflow::run(
        {
            {"producer", 1,
             [&](workflow::Context& ctx) {
                 ctx.vol->set_zerocopy("*", "*");
                 h5::File f = h5::File::create("zc_shallow.h5", ctx.vol);
                 auto d = f.create_dataset("v", h5::dt::uint64(), h5::Dataspace({total}));
                 std::vector<std::uint64_t> vals(total);
                 for (std::uint64_t i = 0; i < total; ++i) vals[i] = i ^ 0x5a5a;
                 d.write(vals.data(), h5::Dataspace({total}));
                 f.close(); // vals must stay alive through the serve
                 EXPECT_EQ(ctx.vol->stats().n_zero_copy_pieces, 0u);
             }},
            {"consumer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f    = h5::File::open("zc_shallow.h5", ctx.vol);
                 auto     vals = f.open_dataset("v").read_vector<std::uint64_t>();
                 for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(vals[i], i ^ 0x5a5a);
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}});
}

// --- aliased sub-selections: the consumer copies straight out of the piece ----

namespace {

// a 64×32×32 uint64 grid (512 KiB): producers own x-slabs, consumers read
// z-slabs, so every reply piece is a strided quarter of the grid — a
// sub-selection of a producer's x-slab piece, 128 KiB with two ranks a side
constexpr std::uint64_t kX = 64, kY = 32, kZ = 32;
constexpr std::uint64_t kRound = 1'000'003; // value stride between rewrites

h5::Dataspace grid_slab(int axis, int rank, int size) {
    diy::Bounds b(3);
    b.max        = {static_cast<std::int64_t>(kX), static_cast<std::int64_t>(kY),
                    static_cast<std::int64_t>(kZ)};
    const auto u = static_cast<std::size_t>(axis);
    const auto n = b.max[u];
    b.min[u]     = n * rank / size;
    b.max[u]     = n * (rank + 1) / size;
    h5::Dataspace sel({kX, kY, kZ});
    sel.select_box(b);
    return sel;
}

std::uint64_t grid_value(std::uint64_t round, std::int64_t x, std::int64_t y, std::int64_t z) {
    const auto linear = (x * static_cast<std::int64_t>(kY) + y) * static_cast<std::int64_t>(kZ) + z;
    return round * kRound + static_cast<std::uint64_t>(linear);
}

/// Write this rank's x-slab of round `round` into `name`.
void write_x_slab(workflow::Context& ctx, const std::string& name, std::uint64_t round) {
    h5::File      f   = h5::File::create(name, ctx.vol);
    auto          d   = f.create_dataset("g", h5::dt::uint64(), h5::Dataspace({kX, kY, kZ}));
    h5::Dataspace sel = grid_slab(0, ctx.rank(), ctx.size());
    const auto&   b   = sel.boxes()[0];
    std::vector<std::uint64_t> vals;
    vals.reserve(sel.npoints());
    for (auto x = b.min[0]; x < b.max[0]; ++x)
        for (auto y = b.min[1]; y < b.max[1]; ++y)
            for (auto z = b.min[2]; z < b.max[2]; ++z) vals.push_back(grid_value(round, x, y, z));
    d.write(vals.data(), sel);
    f.close();
}

/// Read this rank's z-slab of `name` into a contiguous buffer and prove
/// every element belongs to one round, the one the open pinned; returns it.
std::uint64_t read_z_slab(workflow::Context& ctx, const std::string& name) {
    h5::File      f   = h5::File::open(name, ctx.vol);
    h5::Dataspace sel = grid_slab(2, ctx.rank(), ctx.size());
    std::vector<std::uint64_t> vals(sel.npoints(), ~0ull);
    f.open_dataset("g").read(vals.data(), h5::Dataspace::linear(sel.npoints()), sel);
    f.close();
    const auto&         b     = sel.boxes()[0];
    const std::uint64_t round = vals[0] / kRound;
    std::size_t         k     = 0;
    for (auto x = b.min[0]; x < b.max[0]; ++x)
        for (auto y = b.min[1]; y < b.max[1]; ++y)
            for (auto z = b.min[2]; z < b.max[2]; ++z, ++k)
                if (vals[k] != grid_value(round, x, y, z)) {
                    ADD_FAILURE() << "element (" << x << "," << y << "," << z << ") reads "
                                  << vals[k] << ", not round " << round << "'s value";
                    return round;
                }
    return round;
}

} // namespace

TEST(ZeroCopyServe, CrossedSubSelectionsAliasAndWireCountsSelectedBytes) {
    // x-slabs written, z-slabs read: no reply piece is a whole piece, yet
    // every one is served as an alias of the producer's packed piece, and
    // the wire is charged for the selected quarter, not the aliased half
    const std::uint64_t piece_bytes = kX / 2 * kY * kZ * sizeof(std::uint64_t);
    workflow::run(
        {
            {"producer", 2,
             [&](workflow::Context& ctx) {
                 write_x_slab(ctx, "zc_crossed.h5", 1);
                 const auto st = ctx.vol->stats();
                 EXPECT_EQ(st.n_zero_copy_pieces, 2u) << "one aliased sub per consumer";
                 EXPECT_EQ(st.n_compressed_pieces, 0u);
                 EXPECT_EQ(st.bytes_served, piece_bytes); // two halves of this piece
                 EXPECT_GE(st.bytes_wire, st.bytes_served);
                 EXPECT_LT(st.bytes_wire, st.n_zero_copy_pieces * piece_bytes)
                     << "the wire must count selected bytes, not aliased piece sizes";
             }},
            {"consumer", 2,
             [&](workflow::Context& ctx) { EXPECT_EQ(read_z_slab(ctx, "zc_crossed.h5"), 1u); }},
        },
        {workflow::Link{0, 1, "*"}});
}

TEST(ZeroCopyServe, PartialAliasedPieceWithHolesReadsZeroIntoPoison) {
    // the producer writes rows [0, 128) of a 256×256 grid; the consumer
    // reads the window rows [64, 192) × cols [0, 128). Its reply piece is
    // a strided 64 KiB sub of the 256 KiB piece, served aliased; rows
    // [128, 192) were never written and must read as zero, both through
    // the direct (contiguous memory) path's holes fallback and through
    // the staged path of a strided memory selection
    constexpr std::int64_t n = 256;
    auto box = [](std::int64_t x0, std::int64_t x1, std::int64_t y0, std::int64_t y1) {
        diy::Bounds b(2);
        b.min = {x0, y0};
        b.max = {x1, y1};
        return b;
    };
    auto value = [](std::int64_t x, std::int64_t y) {
        return static_cast<std::uint64_t>(x * n + y) * 5 + 3;
    };
    workflow::run(
        {
            {"producer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f = h5::File::create("zc_part.h5", ctx.vol);
                 auto d = f.create_dataset("g", h5::dt::uint64(), h5::Dataspace({n, n}));
                 h5::Dataspace sel({n, n});
                 sel.select_box(box(0, n / 2, 0, n));
                 std::vector<std::uint64_t> vals;
                 for (std::int64_t x = 0; x < n / 2; ++x)
                     for (std::int64_t y = 0; y < n; ++y) vals.push_back(value(x, y));
                 d.write(vals.data(), sel);
                 f.close();
                 EXPECT_EQ(ctx.vol->stats().n_zero_copy_pieces, 2u);
             }},
            {"consumer", 1,
             [&](workflow::Context& ctx) {
                 h5::File      f = h5::File::open("zc_part.h5", ctx.vol);
                 auto          d = f.open_dataset("g");
                 h5::Dataspace window({n, n});
                 window.select_box(box(64, 192, 0, 128));
                 auto expect = [&](std::int64_t x, std::int64_t y) {
                     return x < n / 2 ? value(x, y) : 0u;
                 };

                 // direct path: contiguous memory, poisoned
                 std::vector<std::uint64_t> flat(window.npoints(), ~0ull);
                 d.read(flat.data(), h5::Dataspace::linear(flat.size()), window);
                 std::size_t k = 0;
                 for (std::int64_t x = 64; x < 192; ++x)
                     for (std::int64_t y = 0; y < 128; ++y, ++k)
                         ASSERT_EQ(flat[k], expect(x, y)) << x << "," << y;

                 // staged path: every other column of a wider poisoned
                 // buffer; the skipped columns must stay poisoned
                 h5::Dataspace mem({128, 256});
                 const std::uint64_t start[] = {0, 0}, stride[] = {1, 2}, count[] = {128, 128},
                                     block[] = {1, 1};
                 mem.select_hyperslab(start, stride, count, block);
                 std::vector<std::uint64_t> wide(128 * 256, ~0ull);
                 d.read(wide.data(), mem, window);
                 for (std::int64_t x = 0; x < 128; ++x)
                     for (std::int64_t y = 0; y < 256; ++y) {
                         const auto got = wide[static_cast<std::size_t>(x * 256 + y)];
                         if (y % 2)
                             ASSERT_EQ(got, ~0ull) << x << "," << y;
                         else
                             ASSERT_EQ(got, expect(x + 64, y / 2)) << x << "," << y;
                     }
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}});
}

TEST(ZeroCopyServe, RewriteRacingAliasedPartialReadsSeesOpenedVersion) {
    // producers rewrite the same file while consumers' aliased sub-
    // selection reads are in flight: the alias pins the snapshot the
    // consumer opened, so each read must see exactly one round's bytes,
    // never a newer publish and never a GC'd buffer
    constexpr int    rounds = 6;
    workflow::Options opts;
    opts.mode             = workflow::Mode::in_situ();
    opts.background_serve = true;
    workflow::run(
        {
            {"producer", 2,
             [&](workflow::Context& ctx) {
                 for (int r = 1; r <= rounds; ++r)
                     write_x_slab(ctx, "zc_race.h5", static_cast<std::uint64_t>(r));
                 ctx.vol->finish_serving();
                 EXPECT_GT(ctx.vol->stats().n_zero_copy_pieces, 0u);
                 EXPECT_EQ(ctx.vol->snapshot_store().outstanding_pins(), 0u);
             }},
            {"consumer", 2,
             [&](workflow::Context& ctx) {
                 std::uint64_t prev = 0;
                 for (int r = 1; r <= rounds; ++r) {
                     const auto got = read_z_slab(ctx, "zc_race.h5");
                     EXPECT_GE(got, prev) << "round " << r;
                     EXPECT_GE(got, 1u);
                     EXPECT_LE(got, static_cast<std::uint64_t>(rounds));
                     prev = got;
                 }
             }},
        },
        {workflow::Link{0, 1, "*"}}, opts);
}

TEST(ZeroCopyServe, PooledBufferNotReusedWhileAliasedPayloadHeld) {
    // an enc-2 payload is an owning alias of the snapshot its piece lives
    // in. The consumer keeps one from version 1 while the producer drops
    // the file and writes version 2 of the same size: version 1's buffer
    // cannot return to the piece pool while the alias lives, so version
    // 2 gets fresh pages and the held bytes never change. Once the alias
    // drops, the buffer is pooled and version 3's write reuses it.
    constexpr std::uint64_t n    = std::uint64_t(2) << 17; // 2 MiB of u64
    constexpr int           tag  = 77;
    const std::string       name = "zc_pool.h5";
    auto value = [](std::uint64_t version, std::uint64_t i) { return version * 1'000'003 + i; };
    auto hits  = [] { return obs::Registry::global().counter("pool.hits").value(); };
    auto misses = [] { return obs::Registry::global().counter("pool.misses").value(); };
    workflow::run(
        {
            {"producer", 1,
             [&](workflow::Context& ctx) {
                 auto write = [&](std::uint64_t version) {
                     h5::File f = h5::File::create(name, ctx.vol);
                     auto d = f.create_dataset("v", h5::dt::uint64(), h5::Dataspace({n}));
                     std::vector<std::uint64_t> vals(n);
                     for (std::uint64_t i = 0; i < n; ++i) vals[i] = value(version, i);
                     d.write(vals.data(), h5::Dataspace({n}));
                     f.close();
                 };
                 write(1);
                 EXPECT_GT(ctx.vol->stats().n_zero_copy_pieces, 0u);
                 {
                     // the serve path's alias: the piece's packed buffer,
                     // owned through the snapshot (DistMetadataVol's
                     // handle_read_request builds exactly this)
                     auto pin = ctx.vol->snapshot_store().pin(name);
                     if (!pin) throw std::runtime_error("version 1 is not published");
                     const auto& piece = pin->root()->resolve("v")->pieces.at(0);
                     ctx.world.send_shared(1, tag,
                                           simmpi::SharedPayload(pin.shared(), piece.packed_bytes()));
                 }
                 ctx.vol->drop_file(name); // the alias is now the only owner
                 const auto m = misses();
                 write(2);
                 EXPECT_GE(misses(), m + 1) << "version 2 must not reuse the aliased buffer";
                 ctx.world.barrier(); // the consumer dropped its alias
                 ctx.vol->drop_file(name);
                 const auto h = hits();
                 write(3);
                 EXPECT_GE(hits(), h + 1) << "a buffer goes back to the pool after its last alias";
             }},
            {"consumer", 1,
             [&](workflow::Context& ctx) {
                 auto read = [&](std::uint64_t version) {
                     h5::File f    = h5::File::open(name, ctx.vol);
                     auto     vals = f.open_dataset("v").read_vector<std::uint64_t>();
                     f.close();
                     ASSERT_EQ(vals.size(), n);
                     for (std::uint64_t i = 0; i < n; ++i)
                         ASSERT_EQ(vals[i], value(version, i)) << "version " << version;
                 };
                 read(1);
                 simmpi::SharedPayload held;
                 ctx.world.recv_shared(0, tag, held);
                 // failures below must not skip the barrier the producer waits on
                 auto check_held = [&] {
                     ASSERT_TRUE(held);
                     ASSERT_EQ(held->size(), n * sizeof(std::uint64_t));
                     std::vector<std::uint64_t> got(n);
                     std::memcpy(got.data(), held->data(), held->size());
                     for (std::uint64_t i = 0; i < n; ++i)
                         ASSERT_EQ(got[i], value(1, i)) << "held alias changed at " << i;
                 };
                 check_held();
                 read(2);
                 check_held();
                 held.reset();
                 ctx.world.barrier();
                 read(3);
             }},
        },
        {workflow::Link{0, 1, "*"}});
}

TEST(CodecEndToEnd, UncompressedWhenNotAdvertised) {
    // without set_compress on the consumer, no piece is framed
    const std::uint64_t total = 4096;
    workflow::run(
        {
            {"producer", 1,
             [&](workflow::Context& ctx) {
                 ctx.vol->set_compress_min_bytes(64);
                 h5::File f = h5::File::create("nocodec.h5", ctx.vol);
                 auto d = f.create_dataset("v", h5::dt::uint64(), h5::Dataspace({total}));
                 std::vector<std::uint64_t> vals(total);
                 for (std::uint64_t i = 0; i < total; ++i) vals[i] = i;
                 d.write(vals.data(), h5::Dataspace({total}));
                 f.close();
                 EXPECT_EQ(ctx.vol->stats().n_compressed_pieces, 0u);
             }},
            {"consumer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f    = h5::File::open("nocodec.h5", ctx.vol);
                 auto     vals = f.open_dataset("v").read_vector<std::uint64_t>();
                 for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(vals[i], i);
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}});
}
