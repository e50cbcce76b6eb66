#pragma once

#include "storage.hpp"
#include "tree.hpp"
#include "vol.hpp"

#include <simmpi/comm.hpp>

#include <unordered_map>

namespace h5 {

/// The terminal VOL: implements the data model against a real on-disk
/// binary file format (the stand-in for native HDF5 file I/O). Two modes:
///
/// - serial: one rank per file.
/// - collective: constructed with a communicator; all ranks of the
///   communicator open/create/close each file together and write their
///   own pieces into a single shared file (the analogue of the paper's
///   "all processes write collectively to a single HDF5 file ... using
///   MPI-IO"). Object/dataset creation must be performed identically on
///   every rank (HDF5's collective-metadata requirement).
///
/// File format (little-endian, version 1):
///   [0..8)   magic "MINIH5F\0"
///   [8..12)  u32 version
///   [12..20) u64 metadata offset
///   [20..28) u64 metadata size
///   [28..)   dataset payloads (row-major, full extent, at offsets
///            recorded in the metadata), then the metadata blob
///            (serialized object tree skeleton).
class NativeVol : public Vol {
public:
    /// Serial VOL.
    NativeVol() = default;
    /// Collective VOL over `comm` (shared-file parallel I/O).
    explicit NativeVol(simmpi::Comm comm) : comm_(std::move(comm)) {}

    void* file_create(const std::string& name) override;
    void* file_open(const std::string& name) override;
    void  file_close(void* file) override;
    void  file_flush(void* file) override;

    void* group_create(void* parent, const std::string& name) override;
    void* group_open(void* parent, const std::string& path) override;

    void* dataset_create(void* parent, const std::string& name, const Datatype& type,
                         const Dataspace& space) override;
    void*     dataset_open(void* parent, const std::string& path) override;
    Datatype  dataset_type(void* dset) override;
    Dataspace dataset_space(void* dset) override;
    void dataset_write(void* dset, const Dataspace& memspace, const Dataspace& filespace,
                       const void* buf) override;
    void dataset_read(void* dset, const Dataspace& memspace, const Dataspace& filespace,
                      void* buf) override;
    void dataset_set_extent(void* dset, const Extent& new_dims) override;

    void attribute_write(void* obj, const std::string& name, const Datatype& type,
                         const Dataspace& space, const void* buf) override;
    std::optional<AttrInfo> attribute_info(void* obj, const std::string& name) override;
    void attribute_read(void* obj, const std::string& name, void* buf) override;

    std::vector<std::string> list_attributes(void* obj) override;
    void                     unlink(void* parent, const std::string& path) override;

    std::vector<std::string> list_children(void* obj) override;
    bool                     exists(void* obj, const std::string& path) override;

private:
    struct OpenFile {
        std::unique_ptr<Object> root;
        std::string             path;
        bool                    writable = false;
        FileIO                  io; ///< valid for reading opened files
    };

    bool      collective() const { return comm_.valid() && comm_.size() > 1; }
    OpenFile& owner_of(Object* obj);
    static Object* node(void* h) { return static_cast<Object*>(h); }

    /// DFS layout: assign file_data_offset to every dataset; returns the
    /// offset of the metadata blob (end of payload region).
    static std::uint64_t assign_layout(Object& root);

    /// Persist a created file (collective, up to the last write; the
    /// caller runs the closing barrier).
    void write_created_file(OpenFile& f);

    simmpi::Comm                                         comm_;
    std::unordered_map<Object*, std::unique_ptr<OpenFile>> files_;
};

} // namespace h5
