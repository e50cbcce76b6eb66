#include "proto.hpp"

#include <cstring>

namespace lowfive::proto {

void detail::bad_value(unsigned raw) {
    throw DecodeError("lowfive: field value " + std::to_string(raw) + " out of range");
}

void detail::expect_op(diy::BinaryBuffer& bb, Op op) {
    if (const Op got = op_of(bb); got != op)
        throw DecodeError("lowfive: expected request op " + std::to_string(static_cast<int>(op))
                          + ", got " + std::to_string(static_cast<int>(got)));
    bb.skip(1);
}

void expect_end(const diy::BinaryBuffer& bb) {
    if (!bb.exhausted())
        throw DecodeError("lowfive: " + std::to_string(bb.remaining())
                          + " trailing bytes after a message");
}

Op op_of(const diy::BinaryBuffer& bb) {
    if (bb.exhausted()) throw DecodeError("lowfive: empty request");
    const auto raw = static_cast<std::uint8_t>(bb.data()[bb.position()]);
    if (!known(static_cast<Op>(raw)))
        throw DecodeError("lowfive: unknown request op " + std::to_string(raw));
    return static_cast<Op>(raw);
}

void set_frame_size(std::vector<std::byte>& out, std::size_t at, std::uint64_t size) {
    static_assert(std::is_same_v<decltype(FrameTail::size), std::uint64_t>);
    std::memcpy(out.data() + at, &size, sizeof size);
}

} // namespace lowfive::proto
