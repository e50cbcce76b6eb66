#pragma once

#include <diy/bounds.hpp>
#include <diy/serialization.hpp>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace h5 {

/// Exception type for data-model errors.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

using Extent = std::vector<std::uint64_t>;

/// A contiguous run of a selection: position in the row-major
/// linearization of the full extent, length in elements, and position in
/// the packed (iteration-order) enumeration of the selection.
struct SelRun {
    std::uint64_t file_off;
    std::uint64_t len;
    std::uint64_t packed_off;
};

/// An N-dimensional dataspace with a selection, mirroring HDF5: the
/// extent describes the full array shape; the selection names the subset
/// of elements addressed by a read/write. Selections are unions of
/// disjoint axis-aligned boxes — HDF5's regular hyperslabs
/// (start/stride/count/block) expand into such unions.
///
/// Iteration order of a selection (used to pair memory-space elements
/// with file-space elements, and to define the layout of packed buffers)
/// is: boxes in stored order, row-major (C order) within each box.
class Dataspace {
public:
    Dataspace() = default;

    /// Scalar-free construction: an N-d extent with everything selected.
    explicit Dataspace(Extent dims);

    /// Convenience: 1-d dataspace of n elements, all selected.
    static Dataspace linear(std::uint64_t n) { return Dataspace(Extent{n}); }

    int           dim() const { return static_cast<int>(dims_.size()); }
    const Extent& dims() const { return dims_; }
    std::uint64_t extent_npoints() const;

    /// Bounds covering the full extent.
    diy::Bounds extent_bounds() const;

    // --- selection manipulation (return *this for chaining) ---------------

    Dataspace& select_all();
    Dataspace& select_none();
    /// Select one box: start/count per dimension.
    Dataspace& select_box(std::span<const std::uint64_t> start, std::span<const std::uint64_t> count);
    Dataspace& select_box(const diy::Bounds& b);
    /// General regular hyperslab; expands to count[0]*...*count[d-1] boxes
    /// (one per block). stride==0 is treated as stride==block.
    Dataspace& select_hyperslab(std::span<const std::uint64_t> start,
                                std::span<const std::uint64_t> stride,
                                std::span<const std::uint64_t> count,
                                std::span<const std::uint64_t> block);
    /// Add another box to the selection (boxes must stay disjoint; throws
    /// otherwise so packed-buffer semantics stay well defined).
    Dataspace& add_box(const diy::Bounds& b);

    /// Element (point) selection, the analogue of H5Sselect_elements:
    /// each point is one coordinate tuple; points must be distinct
    /// (checked in O(n log n)). Iteration order is the given order.
    Dataspace& select_elements(std::span<const std::array<std::int64_t, diy::max_dim>> points);

    /// Grow the extent (H5Dset_extent direction: never shrinks). The
    /// selection is reset to "all".
    Dataspace& grow_extent(const Extent& new_dims);

    /// A copy of this dataspace with a different extent but the same
    /// selection (boxes must fit in the new extent). Selection iteration
    /// order is extent-independent, so packed buffers stay valid; only
    /// the row-major linearization offsets change.
    Dataspace with_dims(const Extent& new_dims) const;

    // --- selection queries -------------------------------------------------

    bool                             all_selected() const { return all_; }
    bool                             none_selected() const { return !all_ && boxes_.empty(); }
    std::uint64_t                    npoints() const;
    /// Selection as a list of disjoint boxes ("all" resolves to one box).
    const std::vector<diy::Bounds>&  boxes() const;
    /// Smallest box covering the selection (the `bb` of Algorithms 1–3).
    diy::Bounds                      bounding_box() const;

    /// Visit the selection as contiguous runs of the row-major
    /// linearization of the extent. fn(file_offset_elems, nelems,
    /// packed_offset_elems): file_offset indexes the full extent,
    /// packed_offset indexes the packed (iteration-order) buffer.
    void for_each_run(const std::function<void(std::uint64_t, std::uint64_t, std::uint64_t)>& fn) const;

    /// The selection's runs in iteration order, with runs that are
    /// adjacent in both the file linearization and the packed buffer
    /// merged (a full-row slab becomes one run). Memoized per selection:
    /// the first call materializes, later calls (and copies of this
    /// dataspace) reuse the cached vector until the selection mutates.
    const std::vector<SelRun>& runs() const;
    /// The same coalesced runs sorted by file offset — the lookup side of
    /// the scatter/extract kernels. Memoized alongside runs().
    const std::vector<SelRun>& runs_by_file() const;

    bool operator==(const Dataspace& o) const {
        return dims_ == o.dims_ && all_ == o.all_ && boxes_ == o.boxes_;
    }

    void             save(diy::BinaryBuffer& bb) const;
    static Dataspace load(diy::BinaryBuffer& bb);

    std::string str() const;

private:
    void resolve() const; ///< materialize boxes for "all"

    /// add_box without the pairwise-disjointness scan, for callers that
    /// construct provably disjoint boxes (hyperslab expansion, copies of
    /// already-validated selections). Bounds checks still apply.
    Dataspace& add_box_unchecked(const diy::Bounds& b);

    struct RunsCache {
        std::vector<SelRun> iter;    ///< coalesced, iteration order
        std::vector<SelRun> by_file; ///< same runs sorted by file_off
    };
    const RunsCache& run_cache() const;

    Extent                           dims_;
    bool                             all_ = true;
    mutable std::vector<diy::Bounds> boxes_; // disjoint; cached resolution for "all"
    mutable std::shared_ptr<const RunsCache> runs_; // memoized runs; reset on mutation
};

// --- selection algebra -------------------------------------------------------

/// Intersection of two selections over the same extent: the disjoint
/// boxes common to both. Used by serve (Algorithm 2) and query (Algorithm 3).
std::vector<diy::Bounds> intersect_selections(const Dataspace& a, const Dataspace& b);

/// Pack the selected elements of a full-extent buffer into a dense buffer
/// in iteration order. `elem` is the element size in bytes.
void pack_selection(const Dataspace& space, const void* full, std::size_t elem,
                    void* packed);

/// Scatter a packed buffer back into a full-extent buffer.
void unpack_selection(const Dataspace& space, const void* packed, std::size_t elem,
                      void* full);

/// Copy between two buffers through their selections, pairing elements in
/// iteration order (HDF5 read/write semantics). Selections must have equal
/// npoints. `src` and `dst` are full-extent buffers of their dataspaces.
void copy_selected(const Dataspace& src_space, const void* src,
                   const Dataspace& dst_space, void* dst, std::size_t elem);

/// Extract a sub-selection from a *packed* piece. `piece_space` describes
/// how `piece_packed` is laid out (its selection, in iteration order);
/// `want` is a selection covered by piece_space's selection. The selected
/// elements are appended to `out` in `want`'s iteration order.
void extract_from_packed(const Dataspace& piece_space, const void* piece_packed,
                         const Dataspace& want, std::size_t elem,
                         std::vector<std::byte>& out);

/// Inverse of extract_from_packed: write `sub_packed` (the elements of
/// `sub`, in sub's iteration order) into `dest_packed`, which is laid out
/// in `dest_space`'s selection iteration order. `sub` must be covered by
/// dest_space's selection.
void scatter_into_packed(const Dataspace& dest_space, void* dest_packed, const Dataspace& sub,
                         const void* sub_packed, std::size_t elem);

/// The two calls above fused: copy `sub` (covered by both selections)
/// from `piece_packed`, laid out in `piece_space`'s iteration order,
/// into `dest_packed`, laid out in `dest_space`'s. Byte-identical to
/// extract_from_packed followed by scatter_into_packed, without the
/// intermediate packed copy of `sub`. All three spaces must share one
/// extent; throws h5::Error when an element of `sub` is missing from
/// either selection. Extract and scatter are this merge with `sub` as
/// the destination or as the piece.
void copy_piece_into_packed(const Dataspace& piece_space, const void* piece_packed,
                            const Dataspace& sub, const Dataspace& dest_space, void* dest_packed,
                            std::size_t elem);

/// Materialize the coalesced runs of a selection, in iteration order
/// (equivalent to `space.runs()` but returned by value).
std::vector<SelRun> selection_runs(const Dataspace& space);

/// Extract `want` (a sub-selection of `filespace`'s selection, in file
/// coordinates) directly from a user memory buffer described by
/// `memspace`, where the k-th element of filespace's enumeration lives at
/// the k-th element of memspace's enumeration (HDF5 write semantics).
/// Appends to `out` in `want`'s iteration order. This is the zero-copy
/// path: no intermediate packing of the producer's buffer is made.
void extract_via_mapping(const Dataspace& filespace, const Dataspace& memspace,
                         const void* membuf, const Dataspace& want, std::size_t elem,
                         std::vector<std::byte>& out);

// --- reference (uncoalesced) kernels ----------------------------------------
//
// The original per-run binary-search implementations, kept only as the
// correctness oracle for the property tests (tests/test_kernels.cpp).
// Behaviour is byte-identical to the merge kernels above.

void extract_from_packed_naive(const Dataspace& piece_space, const void* piece_packed,
                               const Dataspace& want, std::size_t elem,
                               std::vector<std::byte>& out);

void scatter_into_packed_naive(const Dataspace& dest_space, void* dest_packed,
                               const Dataspace& sub, const void* sub_packed,
                               std::size_t elem);

void extract_via_mapping_naive(const Dataspace& filespace, const Dataspace& memspace,
                               const void* membuf, const Dataspace& want, std::size_t elem,
                               std::vector<std::byte>& out);

} // namespace h5
