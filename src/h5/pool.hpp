#pragma once

#include <cstddef>
#include <vector>

namespace h5 {

/// Smallest buffer the piece pool keeps (1 MiB). Smaller ones come from
/// malloc's heap, which already recycles them; larger ones are fresh mmap'd
/// pages that the kernel faults in and zeroes on every allocation.
inline constexpr std::size_t piece_pool_floor = std::size_t(1) << 20;

/// A buffer of exactly `n` bytes. At or above the floor it may be pooled
/// and still hold an earlier piece's bytes: zero it unless you overwrite
/// every byte.
std::vector<std::byte> take_piece_bytes(std::size_t n);

/// Hand a buffer back once its last owner is done with it. The pool keeps
/// it while a VOL exists and the peak bound allows (DESIGN.md, "Page-warm
/// piece storage"); otherwise it stays in `buf` and is freed with it.
void give_piece_bytes(std::vector<std::byte>&& buf) noexcept;

/// Pooled-class bytes held by the pool, handed out, and the latter's peak.
struct PiecePoolStats {
    std::size_t held = 0, live = 0, peak = 0;
};
PiecePoolStats piece_pool_stats();

/// Called by h5::Vol's constructor (+1) and destructor (-1): the pool
/// drains when the last VOL instance is destroyed.
void count_vol(int delta) noexcept;

} // namespace h5
