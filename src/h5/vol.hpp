#pragma once

#include "dataspace.hpp"
#include "pool.hpp"
#include "types.hpp"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace h5 {

/// The Virtual Object Layer interface: every public API call dispatches
/// through one of these callbacks, exactly as HDF5 ≥1.12 routes all
/// operations through its VOL. Plugins (LowFive's metadata and
/// distributed-metadata VOLs) implement or forward these callbacks.
///
/// Handles are opaque (`void*`), owned by the plugin that issued them; a
/// group/dataset handle is only valid while its file handle is open.
class Vol {
public:
    Vol() { count_vol(+1); }
    Vol(const Vol&)            = delete;
    Vol& operator=(const Vol&) = delete;
    virtual ~Vol() { count_vol(-1); } // the last one drains the piece pool

    // --- files -----------------------------------------------------------
    virtual void* file_create(const std::string& name) = 0;
    virtual void* file_open(const std::string& name)   = 0;
    virtual void  file_close(void* file)               = 0;
    /// Push current contents to the terminal storage without closing
    /// (H5Fflush). No-op where there is nothing physical to flush to.
    virtual void file_flush(void* file) = 0;

    // --- groups ------------------------------------------------------------
    virtual void* group_create(void* parent, const std::string& name) = 0;
    /// `path` may contain multiple components ("g1/g2").
    virtual void* group_open(void* parent, const std::string& path) = 0;

    // --- datasets ----------------------------------------------------------
    virtual void* dataset_create(void* parent, const std::string& name, const Datatype& type,
                                 const Dataspace& space)            = 0;
    virtual void* dataset_open(void* parent, const std::string& path) = 0;
    virtual Datatype  dataset_type(void* dset)                        = 0;
    virtual Dataspace dataset_space(void* dset)                       = 0;

    /// Write the elements selected in `memspace` (from `buf`, a full
    /// memspace-extent buffer) to the elements selected in `filespace`,
    /// paired in iteration order (HDF5 semantics).
    virtual void dataset_write(void* dset, const Dataspace& memspace, const Dataspace& filespace,
                               const void* buf) = 0;
    virtual void dataset_read(void* dset, const Dataspace& memspace, const Dataspace& filespace,
                              void* buf)        = 0;
    /// Grow a dataset's extent (H5Dset_extent; growth only).
    virtual void dataset_set_extent(void* dset, const Extent& new_dims) = 0;

    // --- attributes (on files, groups, or datasets) --------------------------
    struct AttrInfo {
        Datatype  type;
        Dataspace space;
    };
    virtual void attribute_write(void* obj, const std::string& name, const Datatype& type,
                                 const Dataspace& space, const void* buf)       = 0;
    virtual std::optional<AttrInfo> attribute_info(void* obj, const std::string& name) = 0;
    virtual void attribute_read(void* obj, const std::string& name, void* buf)  = 0;

    virtual std::vector<std::string> list_attributes(void* obj) = 0;

    // --- links ----------------------------------------------------------------
    /// Remove a group or dataset (H5Ldelete); invalidates handles to it.
    virtual void unlink(void* parent, const std::string& path) = 0;

    // --- introspection -------------------------------------------------------
    virtual std::vector<std::string> list_children(void* obj)             = 0;
    virtual bool                     exists(void* obj, const std::string& path) = 0;
};

using VolPtr = std::shared_ptr<Vol>;

} // namespace h5
