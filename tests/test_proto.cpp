/// The DistMetadataVol wire schema (lowfive/proto.hpp): every message
/// encodes to exactly the bytes of the layout the producer and consumer
/// used to write out by hand (kept below as the reference), decodes back
/// to its fields, and malformed bytes are rejected with typed errors.

#include <lowfive/proto.hpp>

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace lowfive;

namespace {

std::vector<std::byte> take(diy::BinaryBuffer& bb) { return std::move(bb).take(); }

diy::Bounds box(std::int64_t x0, std::int64_t x1, std::int64_t y0, std::int64_t y1) {
    diy::Bounds b(2);
    b.min = {x0, y0};
    b.max = {x1, y1};
    return b;
}

/// An 8×6 extent with two boxes selected.
h5::Dataspace selection() {
    h5::Dataspace sp(h5::Extent{8, 6});
    sp.select_none();
    sp.add_box(box(0, 2, 0, 6));
    sp.add_box(box(4, 8, 1, 3));
    return sp;
}

/// The hand-written box and dataspace layouts the protocol used.
void legacy_box(diy::BinaryBuffer& bb, const diy::Bounds& b) {
    bb.save<std::int32_t>(b.dim);
    for (int i = 0; i < b.dim; ++i) {
        bb.save(b.min[static_cast<std::size_t>(i)]);
        bb.save(b.max[static_cast<std::size_t>(i)]);
    }
}
void legacy_space(diy::BinaryBuffer& bb, const h5::Dataspace& sp) {
    bb.save(sp.dims());
    bb.save<std::uint8_t>(sp.all_selected() ? 1 : 0);
    if (sp.all_selected()) return;
    bb.save<std::uint64_t>(sp.boxes().size());
    for (const auto& b : sp.boxes()) legacy_box(bb, b);
}

const std::string name = "stream\x1f" "0000000000000042"; // longer than the SSO buffer
const std::string dset = "/fields/density";

std::unique_ptr<h5::Object> skeleton() {
    auto root = std::make_unique<h5::Object>(h5::ObjectKind::File, "f.h5");
    auto g    = std::make_unique<h5::Object>(h5::ObjectKind::Group, "fields");
    auto d    = std::make_unique<h5::Object>(h5::ObjectKind::Dataset, "density");
    d->type   = h5::dt::float64();
    d->space  = h5::Dataspace(h5::Extent{8, 6});
    d->attributes.push_back({"units", h5::dt::int32(), h5::Dataspace::linear(1),
                             std::vector<std::byte>(4, std::byte{7})});
    g->add_child(std::move(d));
    root->add_child(std::move(g));
    return root;
}

} // namespace

TEST(WireSchema, RequestsMatchTheHandWrittenLayouts) {
    const auto sel = selection();
    const auto bb  = box(1, 5, 0, 4);
    {
        diy::BinaryBuffer ref;
        ref.save(static_cast<std::uint8_t>(1));
        ref.save(name);
        EXPECT_EQ(proto::encode<proto::MetadataQuery>(name), take(ref));
    }
    // the query prefix: op, request id, file, dataset, opened version
    auto query = [&](std::uint8_t op) {
        diy::BinaryBuffer ref;
        ref.save(op);
        ref.save(std::uint64_t{77});
        ref.save(name);
        ref.save(dset);
        ref.save(std::uint64_t{3});
        return ref;
    };
    {
        auto ref = query(2);
        legacy_box(ref, bb);
        EXPECT_EQ(proto::encode<proto::IntersectQuery>(std::uint64_t{77}, name, dset,
                                                       std::uint64_t{3}, bb),
                  take(ref));
    }
    for (const bool accept : {false, true}) {
        auto ref = query(3);
        legacy_space(ref, sel);
        ref.save<std::uint8_t>(accept ? 1 : 0);
        EXPECT_EQ(proto::encode<proto::DataQuery>(std::uint64_t{77}, name, dset, std::uint64_t{3},
                                                  sel, accept),
                  take(ref));
    }
    {
        diy::BinaryBuffer ref;
        ref.save(static_cast<std::uint8_t>(4));
        ref.save(name);
        ref.save(std::uint64_t{9});
        EXPECT_EQ(proto::encode<proto::Done>(name, std::uint64_t{9}), take(ref));
    }
    {
        diy::BinaryBuffer ref;
        ref.save(static_cast<std::uint8_t>(5));
        ref.save(name);
        ref.save<std::uint64_t>(12);
        ref.save<std::uint8_t>(1);
        EXPECT_EQ(proto::encode<proto::StepNext>(name, std::uint64_t{12}, true), take(ref));
    }
    {
        diy::BinaryBuffer ref;
        ref.save(static_cast<std::uint8_t>(6));
        ref.save(name);
        ref.save<std::uint64_t>(12);
        EXPECT_EQ(proto::encode<proto::StepPin>(name, std::uint64_t{12}), take(ref));
    }
    for (const bool rollback : {false, true}) {
        diy::BinaryBuffer ref;
        ref.save(static_cast<std::uint8_t>(7));
        ref.save(name);
        ref.save<std::uint64_t>(12);
        ref.save<std::uint8_t>(rollback ? 1 : 0);
        EXPECT_EQ(proto::encode<proto::StepRelease>(name, std::uint64_t{12}, rollback), take(ref));
    }
    {
        diy::BinaryBuffer ref;
        ref.save(static_cast<std::uint8_t>(8));
        ref.save(name);
        EXPECT_EQ(proto::encode<proto::StreamDone>(name), take(ref));
    }
}

TEST(WireSchema, RepliesMatchTheHandWrittenLayouts) {
    {
        const auto        root = skeleton();
        diy::BinaryBuffer ref;
        ref.save(std::uint64_t{5});
        root->save_skeleton(ref);
        EXPECT_EQ(proto::encode<proto::MetadataReply>(std::uint64_t{5}, *root), take(ref));
    }
    {
        const std::vector<std::int32_t> ranks{0, 3, 4};
        diy::BinaryBuffer               ref;
        ref.save(std::uint64_t{77});
        ref.save(ranks);
        EXPECT_EQ(proto::encode<proto::IntersectReply>(std::uint64_t{77}, ranks), take(ref));
    }
    {
        // a data reply with one piece of each encoding, bodies in place
        const auto                   sub = selection(), whole = h5::Dataspace(h5::Extent{8, 6});
        const std::uint64_t          nbytes = sub.npoints() * 8;
        const std::vector<std::byte> body(nbytes, std::byte{0x5a}), frame(13, std::byte{0x11});
        diy::BinaryBuffer            ref;
        ref.save(std::uint64_t{77});
        ref.save(std::uint64_t{3});
        legacy_space(ref, sub);
        ref.save(nbytes);
        ref.save<std::uint8_t>(0);
        ref.save_raw(body.data(), body.size());
        legacy_space(ref, sub);
        ref.save(nbytes);
        ref.save<std::uint8_t>(1);
        ref.save<std::uint64_t>(frame.size());
        ref.save_raw(frame.data(), frame.size());
        legacy_space(ref, sub);
        ref.save(nbytes);
        ref.save<std::uint8_t>(2);
        legacy_space(ref, whole);

        diy::BinaryBuffer out;
        proto::append<proto::DataReply>(out, std::uint64_t{77}, std::uint64_t{3});
        proto::append<proto::Piece>(out, sub, nbytes, proto::Enc::Raw);
        out.save_raw(body.data(), body.size());
        proto::append<proto::Piece>(out, sub, nbytes, proto::Enc::Frame);
        const auto at = out.size();
        proto::append<proto::FrameTail>(out, std::uint64_t{0});
        out.save_raw(frame.data(), frame.size());
        proto::set_frame_size(out.mutable_data(), at, frame.size());
        proto::append<proto::Piece>(out, sub, nbytes, proto::Enc::Alias);
        proto::append<proto::AliasTail>(out, whole);
        EXPECT_EQ(take(out), take(ref));
    }
    for (const bool eos : {false, true}) {
        diy::BinaryBuffer ref;
        ref.save<std::uint8_t>(eos ? 1 : 0);
        ref.save<std::uint64_t>(eos ? 0 : 41);
        EXPECT_EQ(proto::encode<proto::StepGrant>(eos, std::uint64_t{eos ? 0u : 41u}), take(ref));
    }
    for (const auto status : {proto::PinStatus::Pinned, proto::PinStatus::Gone}) {
        diy::BinaryBuffer ref;
        ref.save<std::uint8_t>(status == proto::PinStatus::Pinned ? 0 : 2);
        EXPECT_EQ(proto::encode<proto::PinReply>(status), take(ref));
    }
    {
        diy::BinaryBuffer ref;
        ref.save(name);
        EXPECT_EQ(proto::encode<proto::FileReady>(name), take(ref));
    }
    {
        diy::BinaryBuffer ref;
        legacy_box(ref, box(0, 4, 2, 6));
        EXPECT_EQ(proto::encode<proto::IndexBox>(box(0, 4, 2, 6)), take(ref));
    }
}

TEST(WireSchema, MessagesDecodeToTheirFields) {
    diy::BinaryBuffer dq(proto::encode<proto::DataQuery>(std::uint64_t{77}, name, dset,
                                                         std::uint64_t{3}, selection(), true));
    EXPECT_EQ(proto::op_of(dq), proto::Op::DataQuery);
    const auto q = proto::decode<proto::DataQuery>(dq);
    EXPECT_EQ(q.id, 77u);
    EXPECT_EQ(q.name, name);
    EXPECT_EQ(q.dset, dset);
    EXPECT_EQ(q.version, 3u);
    EXPECT_EQ(q.space, selection());
    EXPECT_TRUE(q.accept_codec);

    diy::BinaryBuffer md(proto::encode<proto::MetadataReply>(std::uint64_t{5}, *skeleton()));
    const auto        m = proto::decode<proto::MetadataReply>(md);
    EXPECT_EQ(m.version, 5u);
    ASSERT_NE(m.root->resolve("fields/density"), nullptr);
    EXPECT_EQ(m.root->resolve("fields/density")->space.dims(), (h5::Extent{8, 6}));

    diy::BinaryBuffer pin(proto::encode<proto::PinReply>(proto::PinStatus::Gone));
    EXPECT_EQ(proto::decode<proto::PinReply>(pin).status, proto::PinStatus::Gone);
}

TEST(WireSchema, RequestsRejectUnknownAndWrongOpsAndTrailingBytes) {
    for (const std::uint8_t op : {0, 9, 0xEE}) {
        diy::BinaryBuffer bb;
        bb.save(op);
        bb.save(name);
        EXPECT_THROW(proto::op_of(bb), proto::DecodeError);
        EXPECT_THROW(proto::decode<proto::StreamDone>(bb), proto::DecodeError);
    }
    {
        diy::BinaryBuffer bb;
        EXPECT_THROW(proto::op_of(bb), proto::DecodeError); // empty
    }
    {
        // a well-formed StreamDone is not a MetadataQuery (same fields)
        diy::BinaryBuffer bb(proto::encode<proto::StreamDone>(name));
        EXPECT_THROW(proto::decode<proto::MetadataQuery>(bb), proto::DecodeError);
    }
    {
        auto bytes = proto::encode<proto::Done>(name, std::uint64_t{9});
        bytes.push_back(std::byte{0});
        diy::BinaryBuffer bb(std::move(bytes));
        EXPECT_THROW(proto::decode<proto::Done>(bb), proto::DecodeError);
    }
}

TEST(WireSchema, LengthsPastTheEndAndUnknownValuesThrowTyped) {
    {
        // a name length the message cannot hold
        diy::BinaryBuffer bb;
        bb.save(static_cast<std::uint8_t>(1));
        bb.save(std::uint64_t{1} << 40);
        bb.save<std::uint32_t>(0);
        EXPECT_THROW(proto::decode<proto::MetadataQuery>(bb), diy::DecodeError);
    }
    {
        diy::BinaryBuffer bb;
        bb.save(std::uint64_t{77});
        bb.save(~std::uint64_t{0}); // rank count
        EXPECT_THROW(proto::decode<proto::IntersectReply>(bb), diy::DecodeError);
    }
    {
        diy::BinaryBuffer bb;
        bb.save<std::uint8_t>(1); // neither Pinned (0) nor Gone (2)
        EXPECT_THROW(proto::decode<proto::PinReply>(bb), proto::DecodeError);
    }
    {
        diy::BinaryBuffer bb;
        bb.save<std::uint8_t>(2); // a flag is 0 or 1
        bb.save<std::uint64_t>(0);
        EXPECT_THROW(proto::decode<proto::StepGrant>(bb), proto::DecodeError);
    }
    {
        diy::BinaryBuffer bb;
        proto::append<proto::Piece>(bb, selection(), std::uint64_t{8}, proto::Enc::Alias);
        bb.mutable_data().back() = std::byte{3}; // no encoding 3
        EXPECT_THROW(proto::read<proto::Piece>(bb), proto::DecodeError);
    }
}
