/// On-disk format robustness: corrupted and truncated files must fail
/// with clean errors, never crashes or silent garbage.

#include <h5/h5.hpp>

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

using namespace h5;

namespace {

class FormatTest : public ::testing::Test {
protected:
    void SetUp() override {
        PfsModel::instance().configure(0, 0, 0);
        // pid-unique name: ctest -j runs each test as its own process,
        // and concurrent FormatTest cases must not share the file
        path_ = (std::filesystem::temp_directory_path()
                 / ("fmt_robust." + std::to_string(getpid()) + ".mh5"))
                    .string();
        std::filesystem::remove(path_);

        auto vol = std::make_shared<NativeVol>();
        File f   = File::create(path_, vol);
        auto d   = f.create_dataset("d", dt::uint64(), Dataspace({64}));
        std::vector<std::uint64_t> v(64, 7);
        d.write(v.data());
        f.write_attribute("a", 1);
    }
    void TearDown() override { std::filesystem::remove(path_); }

    void truncate_to(std::uintmax_t size) { std::filesystem::resize_file(path_, size); }

    std::uintmax_t file_size() const { return std::filesystem::file_size(path_); }

    void corrupt_at(std::uintmax_t offset, unsigned char byte) {
        std::fstream s(path_, std::ios::in | std::ios::out | std::ios::binary);
        s.seekp(static_cast<std::streamoff>(offset));
        s.put(static_cast<char>(byte));
    }

    std::string path_;
};

} // namespace

TEST_F(FormatTest, IntactFileReads) {
    auto vol = std::make_shared<NativeVol>();
    File f   = File::open(path_, vol);
    EXPECT_EQ(f.open_dataset("d").read_vector<std::uint64_t>()[63], 7u);
    f.close();
}

TEST_F(FormatTest, TruncatedToHeaderFails) {
    truncate_to(28); // just the header: metadata gone
    auto vol = std::make_shared<NativeVol>();
    EXPECT_THROW(File::open(path_, vol), Error);
}

TEST_F(FormatTest, TruncatedBelowHeaderFails) {
    truncate_to(10);
    auto vol = std::make_shared<NativeVol>();
    EXPECT_THROW(File::open(path_, vol), Error);
}

TEST_F(FormatTest, EmptyFileFails) {
    truncate_to(0);
    auto vol = std::make_shared<NativeVol>();
    EXPECT_THROW(File::open(path_, vol), Error);
}

TEST_F(FormatTest, BadMagicFails) {
    corrupt_at(0, 'X');
    auto vol = std::make_shared<NativeVol>();
    EXPECT_THROW(File::open(path_, vol), Error);
}

TEST_F(FormatTest, BadVersionFails) {
    corrupt_at(8, 0xEE);
    auto vol = std::make_shared<NativeVol>();
    EXPECT_THROW(File::open(path_, vol), Error);
}

TEST_F(FormatTest, TruncatedDataRegionFailsOnRead) {
    // keep the header readable but cut into the payload: the open may
    // succeed (metadata lives at the end... so cutting the tail removes
    // metadata first). Cut just one byte: metadata blob truncated.
    truncate_to(file_size() - 1);
    auto vol = std::make_shared<NativeVol>();
    EXPECT_THROW(File::open(path_, vol), Error);
}

TEST_F(FormatTest, GarbageMetadataOffsetFails) {
    // metadata offset points far past EOF
    corrupt_at(12, 0xFF);
    corrupt_at(13, 0xFF);
    corrupt_at(14, 0xFF);
    auto vol = std::make_shared<NativeVol>();
    EXPECT_THROW(File::open(path_, vol), Error);
}

TEST_F(FormatTest, GarbageMetadataSizeFails) {
    // metadata size claims ~2^64 bytes: rejected against the file size
    // before a buffer is sized by it
    for (std::uintmax_t at = 20; at < 28; ++at) corrupt_at(at, 0xFF);
    auto vol = std::make_shared<NativeVol>();
    EXPECT_THROW(File::open(path_, vol), Error);
}

// --- crafted skeleton encodings ------------------------------------------------

TEST(SkeletonDecode, UnknownKindsAndClassesThrow) {
    Object root(ObjectKind::File, "f");
    auto*  d = root.add_child(std::make_unique<Object>(ObjectKind::Dataset, "d"));
    d->type  = dt::int32();
    d->space = Dataspace::linear(4);
    diy::BinaryBuffer good;
    root.save_skeleton(good);
    auto bytes = std::move(good).take();
    {
        auto bad = bytes;
        bad[0]   = std::byte{3}; // no ObjectKind 3
        diy::BinaryBuffer bb(std::move(bad));
        EXPECT_THROW(Object::load_skeleton(bb), Error);
    }
    {
        // the dataset's type class follows its kind byte, name and an
        // empty attribute list
        const std::size_t type_at = 1 + 8 + 1 + 8 + 8 + 1 + 8 + 1 + 8;
        ASSERT_EQ(bytes[type_at - 8 - 1 - 8 - 1], std::byte{2}); // the Dataset kind
        auto bad     = bytes;
        bad[type_at] = std::byte{9}; // no TypeClass 9
        diy::BinaryBuffer bb(std::move(bad));
        EXPECT_THROW(Object::load_skeleton(bb), Error);
    }
    diy::BinaryBuffer bb(std::move(bytes));
    EXPECT_EQ(Object::load_skeleton(bb)->resolve("d")->type, dt::int32());
}

TEST(SkeletonDecode, NestingPastTheCapThrows) {
    // each level is a frame of the recursive decoder: a crafted deep tree
    // must fail with a typed error, not overflow the stack
    auto chain = [](int levels) {
        Object  root(ObjectKind::File, "f");
        Object* cur = &root;
        for (int i = 0; i < levels; ++i)
            cur = cur->add_child(std::make_unique<Object>(ObjectKind::Group, "g"));
        diy::BinaryBuffer bb;
        root.save_skeleton(bb);
        return bb;
    };
    auto ok = chain(max_nesting);
    EXPECT_NO_THROW(Object::load_skeleton(ok));
    auto deep = chain(max_nesting + 1);
    EXPECT_THROW(Object::load_skeleton(deep), Error);

    auto nested = [](int levels) {
        Datatype t = dt::int8();
        for (int i = 0; i < levels; ++i) t = Datatype::compound(1).insert("m", 0, t);
        diy::BinaryBuffer bb;
        t.save(bb);
        return bb;
    };
    auto ok_type = nested(max_nesting);
    EXPECT_NO_THROW(Datatype::load(ok_type));
    auto deep_type = nested(max_nesting + 1);
    EXPECT_THROW(Datatype::load(deep_type), Error);
}

// --- crafted dataspace encodings ---------------------------------------------
//
// Dataspace::load decodes peer messages (serve requests and replies) as
// well as .mh5 metadata, so its length and rank fields are untrusted.

namespace {

/// A 2-d 4×4 extent with a box-list selection header claiming `nboxes`;
/// the caller appends the box bytes.
diy::BinaryBuffer crafted_space(std::uint64_t nboxes) {
    diy::BinaryBuffer bb;
    bb.save(std::vector<std::uint64_t>{4, 4});
    bb.save<std::uint8_t>(0); // not "all": a box list follows
    bb.save(nboxes);
    return bb;
}

} // namespace

TEST(DataspaceDecode, CraftedBuffersThrowTypedErrors) {
    {
        // box rank above diy::max_dim: decoding it would index past the
        // end of Bounds::min/max
        auto bb = crafted_space(1);
        bb.save<std::int32_t>(diy::max_dim + 1);
        for (int i = 0; i < 2 * (diy::max_dim + 1); ++i) bb.save<std::int64_t>(1);
        EXPECT_THROW(Dataspace::load(bb), Error);
    }
    {
        // box rank that disagrees with the extent's
        auto bb = crafted_space(1);
        bb.save<std::int32_t>(1);
        bb.save<std::int64_t>(0);
        bb.save<std::int64_t>(2);
        EXPECT_THROW(Dataspace::load(bb), Error);
    }
    {
        auto bb = crafted_space(1);
        bb.save<std::int32_t>(-3);
        EXPECT_THROW(Dataspace::load(bb), Error);
    }
    {
        // a box count the remaining bytes cannot hold (one box is 36
        // bytes at rank 2; two follow)
        auto bb = crafted_space(std::uint64_t{1} << 40);
        for (int k = 0; k < 2; ++k) {
            bb.save<std::int32_t>(2);
            for (int i = 0; i < 4; ++i) bb.save<std::int64_t>(1);
        }
        EXPECT_THROW(Dataspace::load(bb), Error);
    }
    {
        // the well-formed encoding of the same shape still decodes
        Dataspace sp(Extent{4, 4});
        diy::Bounds b(2);
        b.min = {1, 0};
        b.max = {3, 4};
        sp.select_box(b);
        diy::BinaryBuffer bb;
        sp.save(bb);
        EXPECT_EQ(Dataspace::load(bb), sp);
        EXPECT_TRUE(bb.exhausted());
    }
}
