#pragma once

#include <diy/bounds.hpp>
#include <diy/serialization.hpp>
#include <h5/dataspace.hpp>
#include <h5/tree.hpp>
#include <simmpi/comm.hpp>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

/// The wire schema of DistMetadataVol: the index–serve–query protocol
/// (Algorithms 1–3), its streaming extension and the file-ready notice.
/// Each message is one struct whose fields() lists its fields in wire
/// order; encode and decode walk that list, so each layout is written
/// once. Fields encode in host byte order: numbers as their bytes, bool
/// and enums as one byte, strings and rank lists as a u64 count and the
/// elements, diy::Bounds and h5::Dataspace by their save(), and the
/// metadata skeleton (a shared_ptr<h5::Object> field) by save_skeleton.
/// A request starts with its op byte; nothing else carries a type tag,
/// its message tag says what it is. Both ends are always the same
/// binary, so there is no version byte.
namespace lowfive::proto {

/// Peer bytes that are not the message expected there: an unknown or
/// wrong op, an unknown enum value, or trailing bytes. Decoding also
/// throws diy::DecodeError (a read or a length past the end) and
/// h5::Error (a malformed dataspace or skeleton), always before it
/// allocates for a length the bytes cannot hold.
class DecodeError : public h5::Error {
public:
    using h5::Error::Error;
};

inline constexpr int rpc_request = 901; ///< every request; also the serve thread's self-sends
inline constexpr int rpc_reply   = 902; ///< metadata, intersect, step-grant and pin replies
inline constexpr int rpc_ready   = 903; ///< file-ready notices (file mode)
/// data replies: their own tag, so eagerly issued data queries cannot
/// match the intersect drain
inline constexpr int rpc_data_reply = 904;

enum class Op : std::uint8_t {
    MetadataQuery  = 1,
    IntersectQuery = 2,
    DataQuery      = 3,
    Done           = 4,
    // streaming (DESIGN.md § Streaming transport): the consumer task's
    // rank 0 asks producer rank 0 (the coordinator) for the next step,
    // pins it on every other producer rank, and releases all pins once
    // every consumer rank finished reading the step
    StepNext    = 5, ///< consumer rank 0 → coordinator: grant next step >= min
    StepPin     = 6, ///< consumer rank 0 → other producer ranks: pin granted step
    StepRelease = 7, ///< consumer rank 0 → every producer rank: drop one pin
    StreamDone  = 8, ///< consumer rank 0 → every producer rank: task unsubscribed
};
constexpr bool known(Op op) { return op >= Op::MetadataQuery && op <= Op::StreamDone; }

/// How a data reply carries one piece's bytes after its Piece header.
enum class Enc : std::uint8_t {
    Raw   = 0, ///< `nbytes` packed in sub's order follow in place
    Frame = 1, ///< a FrameTail, then a codec frame of that size in place
    /// an AliasTail; the producer's whole packed piece follows as its own
    /// message on the same (source, tag) stream, in piece order
    Alias = 2,
};
constexpr bool known(Enc e) { return e <= Enc::Alias; }

/// StepPin's answer; Gone: this rank already evicted the step, so the
/// consumer rolls its pins back and retries past it.
enum class PinStatus : std::uint8_t { Pinned = 0, Gone = 2 };
constexpr bool known(PinStatus s) { return s == PinStatus::Pinned || s == PinStatus::Gone; }

template <Op O>
struct Request {
    static constexpr Op  op  = O;
    static constexpr int tag = rpc_request;
};
template <int T>
struct Reply {
    static constexpr int tag = T;
};

// --- requests ------------------------------------------------------------------------

struct MetadataQuery : Request<Op::MetadataQuery> {
    std::string name;
    auto        fields() { return std::tie(name); }
};

/// `id` is the read's request id, echoed by the reply; `version` is the
/// publish version the consumer opened, which the producer pins.
struct IntersectQuery : Request<Op::IntersectQuery> {
    std::uint64_t id = 0;
    std::string   name, dset;
    std::uint64_t version = 0;
    diy::Bounds   box; ///< bounding box of the read's selection
    auto          fields() { return std::tie(id, name, dset, version, box); }
};

struct DataQuery : Request<Op::DataQuery> {
    std::uint64_t id = 0;
    std::string   name, dset;
    std::uint64_t version = 0;
    h5::Dataspace space;
    bool          accept_codec = false; ///< the reply may carry codec frames
    auto          fields() { return std::tie(id, name, dset, version, space, accept_codec); }
};

/// A consumer rank finished its round of `name` at `version`.
struct Done : Request<Op::Done> {
    std::string   name;
    std::uint64_t version = 0;
    auto          fields() { return std::tie(name, version); }
};

struct StepNext : Request<Op::StepNext> {
    std::string   stream;
    std::uint64_t min    = 0; ///< lowest acceptable step (StepId::value())
    bool          latest = false;
    auto          fields() { return std::tie(stream, min, latest); }
};

struct StepPin : Request<Op::StepPin> {
    std::string   stream;
    std::uint64_t step = 0;
    auto          fields() { return std::tie(stream, step); }
};

struct StepRelease : Request<Op::StepRelease> {
    std::string   stream;
    std::uint64_t step     = 0;
    bool          rollback = false; ///< a pin rollback, not a drain
    auto          fields() { return std::tie(stream, step, rollback); }
};

struct StreamDone : Request<Op::StreamDone> {
    std::string stream;
    auto        fields() { return std::tie(stream); }
};

// --- replies and notices -------------------------------------------------------------

struct MetadataReply : Reply<rpc_reply> {
    std::uint64_t               version = 0;
    std::shared_ptr<h5::Object> root; ///< encoded from an h5::Object
    auto                        fields() { return std::tie(version, root); }
};

struct IntersectReply : Reply<rpc_reply> {
    std::uint64_t             id = 0;
    std::vector<std::int32_t> ranks; ///< producer ranks holding intersecting data
    auto                      fields() { return std::tie(id, ranks); }
};

/// A data reply's header; `npieces` × (Piece, its Enc's tail, its bytes)
/// follow in the same message.
struct DataReply : Reply<rpc_data_reply> {
    std::uint64_t id = 0, npieces = 0;
    auto          fields() { return std::tie(id, npieces); }
};

struct Piece {
    h5::Dataspace sub;        ///< the part of the query this piece answers
    std::uint64_t nbytes = 0; ///< sub's packed size
    Enc           enc    = Enc::Raw;
    auto          fields() { return std::tie(sub, nbytes, enc); }
};

struct FrameTail {
    std::uint64_t size = 0; ///< codec frame bytes that follow
    auto          fields() { return std::tie(size); }
};

struct AliasTail {
    h5::Dataspace piece; ///< the aliased piece's own selection
    auto          fields() { return std::tie(piece); }
};

struct StepGrant : Reply<rpc_reply> {
    bool          eos  = false;
    std::uint64_t step = 0; ///< the granted step (when !eos)
    auto          fields() { return std::tie(eos, step); }
};

struct PinReply : Reply<rpc_reply> {
    PinStatus status = PinStatus::Pinned;
    auto      fields() { return std::tie(status); }
};

/// Producer rank 0 → consumers: a passthru file is complete on disk.
struct FileReady : Reply<rpc_ready> {
    std::string name;
    auto        fields() { return std::tie(name); }
};

/// One box of the index exchange (Algorithm 1): each producer rank sends
/// a block's owner the bounding box of every piece that touches it.
struct IndexBox {
    diy::Bounds box;
    auto        fields() { return std::tie(box); }
};

// --- encode / decode -----------------------------------------------------------------

namespace detail {

/// Encode `v` as a field declared `F` (a skeleton field takes the
/// h5::Object itself).
template <class F, class A>
void put(diy::BinaryBuffer& bb, const A& v) {
    if constexpr (std::is_same_v<A, h5::Object>)
        v.save_skeleton(bb);
    else if constexpr (std::is_same_v<F, diy::Bounds> || std::is_same_v<F, h5::Dataspace>)
        static_cast<const F&>(v).save(bb);
    else
        bb.save(static_cast<const F&>(v)); // numbers, bool, enums, strings, rank lists
}

[[noreturn]] void bad_value(unsigned raw);

template <class T>
void get(diy::BinaryBuffer& bb, T& v) {
    if constexpr (std::is_same_v<T, diy::Bounds> || std::is_same_v<T, h5::Dataspace>) {
        v = T::load(bb);
    } else if constexpr (std::is_same_v<T, std::shared_ptr<h5::Object>>) {
        v = h5::Object::load_skeleton(bb);
    } else if constexpr (std::is_same_v<T, bool>) {
        const auto raw = bb.load<std::uint8_t>();
        if (raw > 1) bad_value(raw);
        v = raw != 0;
    } else if constexpr (std::is_enum_v<T>) {
        const auto raw = bb.load<std::underlying_type_t<T>>();
        if (!known(static_cast<T>(raw))) bad_value(raw);
        v = static_cast<T>(raw);
    } else {
        bb.load(v);
    }
}

void expect_op(diy::BinaryBuffer& bb, Op op);

} // namespace detail

/// Append M to `bb` from one value per field, in field order.
template <class M, class... A>
void append(diy::BinaryBuffer& bb, const A&... values) {
    using Fields = decltype(std::declval<M&>().fields());
    static_assert(sizeof...(A) == std::tuple_size_v<Fields>, "one value per field");
    if constexpr (requires { M::op; }) bb.save(M::op);
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        (detail::put<std::remove_reference_t<std::tuple_element_t<I, Fields>>>(bb, values), ...);
    }(std::index_sequence_for<A...>{});
}

template <class M, class... A>
std::vector<std::byte> encode(const A&... values) {
    diy::BinaryBuffer bb;
    append<M>(bb, values...);
    return std::move(bb).take();
}

/// Read one M at `bb`'s position (a request's op must be M's).
template <class M>
M read(diy::BinaryBuffer& bb) {
    if constexpr (requires { M::op; }) detail::expect_op(bb, M::op);
    M m;
    std::apply([&](auto&... f) { (detail::get(bb, f), ...); }, m.fields());
    return m;
}

/// Throws DecodeError when bytes remain after the last message.
void expect_end(const diy::BinaryBuffer& bb);

/// Read one M that must end the message.
template <class M>
M decode(diy::BinaryBuffer& bb) {
    M m = read<M>(bb);
    expect_end(bb);
    return m;
}

/// The op of the request at `bb`'s position, validated but not consumed.
Op op_of(const diy::BinaryBuffer& bb);

/// Overwrite the FrameTail appended at byte `at` of `out` once the frame
/// written after it in place has its size.
void set_frame_size(std::vector<std::byte>& out, std::size_t at, std::uint64_t size);

// --- send / receive --------------------------------------------------------------------

template <class M, class... A>
void send(const simmpi::Comm& ic, int dest, const A&... values) {
    ic.send(dest, M::tag, encode<M>(values...));
}

/// Receive an M on its tag from `src` (or any_source; `from` gets the
/// sender). Without `rest` the message must be exactly one M; with it,
/// `rest` keeps the message positioned just past M (a data reply's
/// pieces follow there).
template <class M>
M recv(const simmpi::Comm& ic, int src, diy::BinaryBuffer* rest = nullptr, int* from = nullptr) {
    std::vector<std::byte> raw;
    const auto             st = ic.recv(src, M::tag, raw);
    if (from) *from = st.source;
    diy::BinaryBuffer in(std::move(raw));
    M                 m = read<M>(in);
    if (rest)
        *rest = std::move(in);
    else
        expect_end(in);
    return m;
}

} // namespace lowfive::proto
