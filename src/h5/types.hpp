#pragma once

#include "dataspace.hpp"

#include <diy/serialization.hpp>

#include <cstdint>
#include <string>
#include <vector>

namespace h5 {

/// Deepest nesting the decoders accept: compounds within compounds, and
/// objects within objects of a metadata skeleton. Each level is one stack
/// frame of a recursive decoder, so crafted bytes must not choose it.
inline constexpr int max_nesting = 64;

/// Class of an atomic datatype, mirroring HDF5's type classes that the
/// paper's workloads use (integers, floats) plus compound types for
/// records such as 3-d particles.
enum class TypeClass : std::uint8_t {
    Int,      ///< signed integer
    UInt,     ///< unsigned integer
    Float,    ///< IEEE float
    Compound, ///< record of named members at byte offsets
};

/// A datatype: either atomic (class + size) or compound (members with
/// names, offsets and their own datatypes). Sizes are in bytes.
class Datatype {
public:
    struct Member {
        std::string name;
        std::size_t offset = 0;
        // members of a compound are atomic or compound; stored flattened
        // via an index into the parent's member_types_ to keep the type
        // trivially serializable
    };

    Datatype() = default;

    static Datatype atomic(TypeClass cls, std::size_t size) {
        Datatype t;
        t.class_ = cls;
        t.size_  = size;
        return t;
    }

    /// Build a compound type; `total_size` allows trailing padding.
    static Datatype compound(std::size_t total_size) {
        Datatype t;
        t.class_ = TypeClass::Compound;
        t.size_  = total_size;
        return t;
    }

    Datatype& insert(const std::string& name, std::size_t offset, const Datatype& member) {
        member_names_.push_back(name);
        member_offsets_.push_back(offset);
        member_types_.push_back(member);
        return *this;
    }

    TypeClass   type_class() const { return class_; }
    std::size_t size() const { return size_; }
    bool        is_compound() const { return class_ == TypeClass::Compound; }

    std::size_t        n_members() const { return member_names_.size(); }
    const std::string& member_name(std::size_t i) const { return member_names_[i]; }
    std::size_t        member_offset(std::size_t i) const { return member_offsets_[i]; }
    const Datatype&    member_type(std::size_t i) const { return member_types_[i]; }

    bool operator==(const Datatype& o) const {
        if (class_ != o.class_ || size_ != o.size_) return false;
        if (member_names_ != o.member_names_ || member_offsets_ != o.member_offsets_) return false;
        return member_types_ == o.member_types_;
    }

    void save(diy::BinaryBuffer& bb) const {
        bb.save(static_cast<std::uint8_t>(class_));
        bb.save<std::uint64_t>(size_);
        bb.save<std::uint64_t>(member_names_.size());
        for (std::size_t i = 0; i < member_names_.size(); ++i) {
            bb.save(member_names_[i]);
            bb.save<std::uint64_t>(member_offsets_[i]);
            member_types_[i].save(bb);
        }
    }

    /// Decodes peer or file bytes: rejects an unknown class and compound
    /// nesting deeper than max_nesting (each level is a stack frame).
    static Datatype load(diy::BinaryBuffer& bb, int depth = 0) {
        if (depth > max_nesting)
            throw Error("h5: datatype nests deeper than " + std::to_string(max_nesting));
        Datatype   t;
        const auto cls = bb.load<std::uint8_t>();
        if (cls > static_cast<std::uint8_t>(TypeClass::Compound))
            throw Error("h5: unknown datatype class " + std::to_string(cls));
        t.class_ = static_cast<TypeClass>(cls);
        t.size_  = bb.load<std::uint64_t>();
        auto n   = bb.load<std::uint64_t>();
        for (std::uint64_t i = 0; i < n; ++i) {
            std::string name;
            bb.load(name);
            auto off = bb.load<std::uint64_t>();
            t.insert(name, off, Datatype::load(bb, depth + 1));
        }
        return t;
    }

    std::string str() const;

private:
    TypeClass                class_ = TypeClass::Int;
    std::size_t              size_  = 0;
    std::vector<std::string> member_names_;
    std::vector<std::size_t> member_offsets_;
    std::vector<Datatype>    member_types_;
};

/// Predefined datatypes, the analogues of H5T_NATIVE_*.
namespace dt {
inline Datatype int8() { return Datatype::atomic(TypeClass::Int, 1); }
inline Datatype int16() { return Datatype::atomic(TypeClass::Int, 2); }
inline Datatype int32() { return Datatype::atomic(TypeClass::Int, 4); }
inline Datatype int64() { return Datatype::atomic(TypeClass::Int, 8); }
inline Datatype uint8() { return Datatype::atomic(TypeClass::UInt, 1); }
inline Datatype uint16() { return Datatype::atomic(TypeClass::UInt, 2); }
inline Datatype uint32() { return Datatype::atomic(TypeClass::UInt, 4); }
inline Datatype uint64() { return Datatype::atomic(TypeClass::UInt, 8); }
inline Datatype float32() { return Datatype::atomic(TypeClass::Float, 4); }
inline Datatype float64() { return Datatype::atomic(TypeClass::Float, 8); }
} // namespace dt

} // namespace h5
