/// Seeded mutation fuzzer over every decoder of peer or file bytes: each
/// lowfive::proto message, h5::Dataspace::load, diy::Bounds::load,
/// h5::Object::load_skeleton, and a whole .mh5 file through
/// NativeVol::file_open. Inputs start from valid encodings and get bit
/// flips, truncations, splices and length-field overwrites from fixed
/// seeds, so every run explores the same inputs. Each input must decode
/// or throw a typed error (diy::DecodeError or h5::Error), and no single
/// allocation made while decoding it may exceed 8× its size plus 4 KiB:
/// this binary replaces operator new to measure that.

#include <h5/h5.hpp>
#include <lowfive/proto.hpp>

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <new>
#include <random>
#include <string>
#include <typeinfo>
#include <vector>

namespace {

// constant-initialized, so reading them inside operator new allocates
// nothing; per thread, so no other thread's allocations count
thread_local bool        g_armed   = false;
thread_local std::size_t g_limit   = 0;
thread_local std::size_t g_largest = 0;

} // namespace

// out of line: inlined into callers, GCC pairs the malloc/free inside
// with the callers' new/delete and warns about a mismatch
[[gnu::noinline]] void* operator new(std::size_t n) {
    if (g_armed) {
        g_largest = std::max(g_largest, n);
        // never hand a runaway size to malloc: the check below reports it
        if (n > g_limit) throw std::bad_alloc();
    }
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void  operator delete[](void* p) noexcept { ::operator delete(p); }
void  operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void  operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace lowfive;
using Bytes   = std::vector<std::byte>;
using Decoder = std::function<void(const Bytes&)>;

constexpr std::size_t alloc_factor = 8;
constexpr std::size_t alloc_slack  = 4096;

/// Decode one input; fail on an untyped exception or an allocation past
/// the bound. Returns whether it decoded.
bool decode_checked(const Decoder& decode, const Bytes& input, const std::string& where) {
    const std::size_t limit = alloc_factor * input.size() + alloc_slack;
    std::string       untyped;
    bool              decoded = false;
    g_largest                 = 0;
    g_limit                   = limit;
    g_armed                   = true;
    try {
        decode(input);
        decoded = true;
    } catch (const diy::DecodeError&) {
    } catch (const h5::Error&) {
    } catch (const std::exception& e) {
        g_armed = false;
        untyped = std::string(typeid(e).name()) + ": " + e.what();
    }
    g_armed = false;
    EXPECT_TRUE(untyped.empty()) << where << ": untyped error " << untyped;
    EXPECT_LE(g_largest, limit) << where << ": allocation of " << g_largest << " bytes for a "
                                << input.size() << "-byte input";
    return decoded;
}

/// Seeded mutations of corpus entries.
class Mutator {
public:
    Mutator(std::uint64_t seed, const std::vector<Bytes>& corpus) : rng_(seed), corpus_(corpus) {}

    Bytes next() {
        Bytes in = corpus_[pick(corpus_.size())];
        for (std::size_t k = 1 + pick(3); k > 0; --k) mutate(in);
        return in;
    }

private:
    std::size_t pick(std::size_t n) { return n ? static_cast<std::size_t>(rng_() % n) : 0; }

    void mutate(Bytes& in) {
        switch (pick(5)) {
        case 0: // bit flips
            for (std::size_t k = 1 + pick(4); k > 0 && !in.empty(); --k)
                in[pick(in.size())] ^= static_cast<std::byte>(1u << pick(8));
            break;
        case 1: // truncation
            in.resize(pick(in.size() + 1));
            break;
        case 2: { // splice: a prefix of this input, a suffix of another
            const Bytes& other = corpus_[pick(corpus_.size())];
            in.resize(pick(in.size() + 1));
            in.insert(in.end(), other.begin() + static_cast<std::ptrdiff_t>(pick(other.size() + 1)),
                      other.end());
            break;
        }
        case 3: { // a u64 length or count overwritten
            if (in.size() < 8) break;
            const std::uint64_t values[] = {0,
                                            1,
                                            2,
                                            9,
                                            255,
                                            in.size(),
                                            in.size() + 1,
                                            std::uint64_t{1} << 32,
                                            std::uint64_t{1} << 40,
                                            std::uint64_t{1} << 62,
                                            ~std::uint64_t{0},
                                            rng_()};
            const auto v = values[pick(std::size(values))];
            std::memcpy(in.data() + pick(in.size() - 7), &v, 8);
            break;
        }
        default: { // an i32 rank or dimension overwritten
            if (in.size() < 4) break;
            const std::int32_t values[] = {-1, 0, 1, diy::max_dim, diy::max_dim + 1, 0x7fffffff,
                                           INT32_MIN};
            const auto         v        = values[pick(std::size(values))];
            std::memcpy(in.data() + pick(in.size() - 3), &v, 4);
            break;
        }
        }
    }

    std::mt19937_64           rng_;
    const std::vector<Bytes>& corpus_;
};

/// Run the corpus (each entry must decode with some decoder) and then
/// `iters` mutated inputs through every decoder.
void fuzz(const char* what, std::uint64_t seed, int iters, const std::vector<Bytes>& corpus,
          const std::vector<Decoder>& decoders) {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        bool decoded = false;
        for (const auto& d : decoders)
            decoded |= decode_checked(d, corpus[i],
                                      std::string(what) + " corpus " + std::to_string(i));
        EXPECT_TRUE(decoded) << what << " corpus " << i << " is not a valid encoding";
    }
    Mutator mutate(seed, corpus);
    for (int i = 0; i < iters && !::testing::Test::HasFailure(); ++i) {
        const Bytes in = mutate.next();
        for (const auto& d : decoders)
            decode_checked(d, in, std::string(what) + " seed " + std::to_string(seed) + " input "
                                      + std::to_string(i));
    }
}

/// decode<M> of a whole message.
template <class M>
Decoder whole() {
    return [](const Bytes& in) {
        diy::BinaryBuffer bb(in);
        (void)proto::decode<M>(bb);
    };
}

diy::Bounds box(int dim, std::int64_t lo, std::int64_t hi) {
    diy::Bounds b(dim);
    for (int i = 0; i < dim; ++i) {
        b.min[static_cast<std::size_t>(i)] = lo + i;
        b.max[static_cast<std::size_t>(i)] = hi + i;
    }
    return b;
}

std::vector<h5::Dataspace> spaces() {
    h5::Dataspace boxes(h5::Extent{16, 12});
    boxes.select_none();
    boxes.add_box(box(2, 0, 4));
    boxes.add_box(box(2, 8, 11));
    return {h5::Dataspace(h5::Extent{64}), boxes, h5::Dataspace(h5::Extent{2, 3, 4, 5})};
}

std::unique_ptr<h5::Object> tree() {
    auto root = std::make_unique<h5::Object>(h5::ObjectKind::File, "f.h5");
    auto grp  = std::make_unique<h5::Object>(h5::ObjectKind::Group, "g");
    auto dset = std::make_unique<h5::Object>(h5::ObjectKind::Dataset, "particles");
    dset->type = h5::Datatype::compound(24)
                     .insert("x", 0, h5::dt::float64())
                     .insert("id", 8, h5::dt::uint64())
                     .insert("v", 16, h5::Datatype::compound(8).insert("s", 0, h5::dt::float32()));
    dset->space = spaces()[1];
    dset->attributes.push_back({"step", h5::dt::int64(), h5::Dataspace::linear(1),
                                Bytes(8, std::byte{3})});
    grp->add_child(std::move(dset));
    root->add_child(std::move(grp));
    return root;
}

Bytes encode_skeleton(const h5::Object& o) {
    diy::BinaryBuffer bb;
    o.save_skeleton(bb);
    return std::move(bb).take();
}

} // namespace

TEST(WireFuzz, RequestsDecodeOrThrowTyped) {
    const std::string name = "stream\x1f" "0000000000000003", dset = "/g/particles";
    const auto        sp   = spaces();
    const std::vector<Bytes> corpus{
        proto::encode<proto::MetadataQuery>(name),
        proto::encode<proto::IntersectQuery>(std::uint64_t{7}, name, dset, std::uint64_t{2},
                                             box(2, 0, 5)),
        proto::encode<proto::DataQuery>(std::uint64_t{7}, name, dset, std::uint64_t{2}, sp[1],
                                        true),
        proto::encode<proto::Done>(name, std::uint64_t{2}),
        proto::encode<proto::StepNext>(name, std::uint64_t{3}, false),
        proto::encode<proto::StepPin>(name, std::uint64_t{3}),
        proto::encode<proto::StepRelease>(name, std::uint64_t{3}, true),
        proto::encode<proto::StreamDone>(name),
    };
    // every request decoder is handed every input, as if the op byte
    // had picked it
    fuzz("request", 0x15eed01, 3000, corpus,
         {whole<proto::MetadataQuery>(), whole<proto::IntersectQuery>(),
          whole<proto::DataQuery>(), whole<proto::Done>(), whole<proto::StepNext>(),
          whole<proto::StepPin>(), whole<proto::StepRelease>(), whole<proto::StreamDone>()});
}

TEST(WireFuzz, RepliesDecodeOrThrowTyped) {
    const auto root = tree();
    const auto sp   = spaces();
    {
        const std::vector<Bytes> corpus{
            proto::encode<proto::MetadataReply>(std::uint64_t{4}, *root),
            proto::encode<proto::IntersectReply>(std::uint64_t{7},
                                                 std::vector<std::int32_t>{0, 2, 5}),
            proto::encode<proto::StepGrant>(false, std::uint64_t{9}),
            proto::encode<proto::PinReply>(proto::PinStatus::Gone),
            proto::encode<proto::FileReady>(std::string("out.h5")),
        };
        // replies carry no op: every decoder must cope with any of them
        fuzz("reply", 0x15eed03, 3000, corpus,
             {whole<proto::MetadataReply>(), whole<proto::IntersectReply>(),
              whole<proto::StepGrant>(), whole<proto::PinReply>(), whole<proto::FileReady>()});
    }
    {
        // a data reply: header, then pieces of all three encodings with
        // their bytes in place, read the way the consumer reads them
        diy::BinaryBuffer   reply;
        const std::uint64_t nbytes = sp[1].npoints() * 8;
        proto::append<proto::DataReply>(reply, std::uint64_t{7}, std::uint64_t{3});
        proto::append<proto::Piece>(reply, sp[1], nbytes, proto::Enc::Raw);
        reply.save_raw(Bytes(nbytes, std::byte{1}).data(), nbytes);
        proto::append<proto::Piece>(reply, sp[1], nbytes, proto::Enc::Frame);
        proto::append<proto::FrameTail>(reply, std::uint64_t{5});
        reply.save_raw(Bytes(5, std::byte{2}).data(), 5);
        proto::append<proto::Piece>(reply, sp[1], nbytes, proto::Enc::Alias);
        proto::append<proto::AliasTail>(reply, sp[0]);
        fuzz("data reply", 0x15eed04, 4000, {std::move(reply).take()}, {[](const Bytes& in) {
            diy::BinaryBuffer bb(in);
            const auto        head = proto::read<proto::DataReply>(bb);
            for (std::uint64_t k = 0; k < head.npieces; ++k) {
                const auto piece = proto::read<proto::Piece>(bb);
                if (piece.enc == proto::Enc::Alias)
                    (void)proto::read<proto::AliasTail>(bb);
                else if (piece.enc == proto::Enc::Frame)
                    bb.skip(proto::read<proto::FrameTail>(bb).size);
                else
                    bb.skip(piece.nbytes);
            }
            proto::expect_end(bb);
        }});
    }
    {
        std::vector<Bytes> corpus;
        for (int dim : {1, 3, diy::max_dim}) {
            diy::BinaryBuffer run;
            for (int k = 0; k < 3; ++k) proto::append<proto::IndexBox>(run, box(dim, k, k + 4));
            corpus.push_back(std::move(run).take());
        }
        fuzz("index boxes", 0x15eed05, 3000, corpus, {[](const Bytes& in) {
                 diy::BinaryBuffer bb(in);
                 while (!bb.exhausted()) (void)proto::read<proto::IndexBox>(bb);
             }});
    }
}

TEST(WireFuzz, DataspacesAndBoundsDecodeOrThrowTyped) {
    std::vector<Bytes> spaces_corpus, bounds_corpus;
    for (const auto& sp : spaces()) {
        diy::BinaryBuffer bb;
        sp.save(bb);
        spaces_corpus.push_back(std::move(bb).take());
    }
    for (int dim : {0, 1, 2, diy::max_dim}) {
        diy::BinaryBuffer bb;
        box(dim, -3, 7).save(bb);
        bounds_corpus.push_back(std::move(bb).take());
    }
    fuzz("dataspace", 0x15eed06, 4000, spaces_corpus, {[](const Bytes& in) {
             diy::BinaryBuffer bb(in);
             (void)h5::Dataspace::load(bb);
         }});
    fuzz("bounds", 0x15eed07, 3000, bounds_corpus, {[](const Bytes& in) {
             diy::BinaryBuffer bb(in);
             (void)diy::Bounds::load(bb);
         }});
}

TEST(WireFuzz, SkeletonsDecodeOrThrowTyped) {
    auto flat = std::make_unique<h5::Object>(h5::ObjectKind::File, "empty.h5");
    fuzz("skeleton", 0x15eed08, 4000, {encode_skeleton(*tree()), encode_skeleton(*flat)},
         {[](const Bytes& in) {
             diy::BinaryBuffer bb(in);
             (void)h5::Object::load_skeleton(bb);
         }});
}

TEST(WireFuzz, MiniH5FilesOpenOrThrowTyped) {
    h5::PfsModel::instance().configure(0, 0, 0);
    const auto path = (std::filesystem::temp_directory_path()
                       / ("wire_fuzz." + std::to_string(getpid()) + ".mh5"))
                          .string();
    {
        auto     vol = std::make_shared<h5::NativeVol>();
        h5::File f   = h5::File::create(path, vol);
        auto     d   = f.create_dataset("d", h5::dt::uint64(), h5::Dataspace({16}));
        std::vector<std::uint64_t> v(16, 7);
        d.write(v.data());
        f.write_attribute("a", 1);
        f.close();
    }
    Bytes valid(std::filesystem::file_size(path));
    std::ifstream(path, std::ios::binary)
        .read(reinterpret_cast<char*>(valid.data()), static_cast<std::streamsize>(valid.size()));

    h5::NativeVol vol;
    fuzz("mh5 file", 0x15eed09, 1500, {valid}, {[&](const Bytes& in) {
             // plain POSIX writes: nothing here allocates, so the bound
             // measures the open alone
             const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
             ASSERT_GE(fd, 0);
             ASSERT_EQ(::write(fd, in.data(), in.size()), static_cast<ssize_t>(in.size()));
             ::close(fd);
             vol.file_close(vol.file_open(path));
         }});
    std::filesystem::remove(path);
}
