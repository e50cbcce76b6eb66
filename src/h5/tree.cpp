#include "tree.hpp"

namespace h5 {

Object* Object::resolve(const std::string& rel_path) {
    Object*     cur = this;
    std::size_t pos = 0;
    while (pos < rel_path.size() && cur) {
        while (pos < rel_path.size() && rel_path[pos] == '/') ++pos;
        if (pos >= rel_path.size()) break;
        std::size_t end  = rel_path.find('/', pos);
        std::string comp = rel_path.substr(pos, end == std::string::npos ? std::string::npos : end - pos);
        cur              = cur->find_child(comp);
        pos              = end == std::string::npos ? rel_path.size() : end;
    }
    return cur;
}

void Object::save_skeleton(diy::BinaryBuffer& bb) const {
    bb.save(static_cast<std::uint8_t>(kind));
    bb.save(name);

    bb.save<std::uint64_t>(attributes.size());
    for (const auto& a : attributes) {
        bb.save(a.name);
        a.type.save(bb);
        a.space.save(bb);
        bb.save(a.data);
    }

    if (kind == ObjectKind::Dataset) {
        type.save(bb);
        space.save(bb);
        bb.save<std::uint64_t>(file_data_offset);
    }

    bb.save<std::uint64_t>(children.size());
    for (const auto& c : children) c->save_skeleton(bb);
}

std::unique_ptr<Object> Object::load_skeleton(diy::BinaryBuffer& bb, int depth) {
    if (depth > max_nesting)
        throw Error("h5: metadata skeleton nests deeper than " + std::to_string(max_nesting));
    const auto raw_kind = bb.load<std::uint8_t>();
    if (raw_kind > static_cast<std::uint8_t>(ObjectKind::Dataset))
        throw Error("h5: unknown object kind " + std::to_string(raw_kind));
    const auto  kind = static_cast<ObjectKind>(raw_kind);
    std::string name;
    bb.load(name);
    auto obj = std::make_unique<Object>(kind, name);

    auto nattrs = bb.load<std::uint64_t>();
    for (std::uint64_t i = 0; i < nattrs; ++i) {
        Object::Attribute a;
        bb.load(a.name);
        a.type  = Datatype::load(bb);
        a.space = Dataspace::load(bb);
        bb.load(a.data);
        obj->attributes.push_back(std::move(a));
    }

    if (kind == ObjectKind::Dataset) {
        obj->type             = Datatype::load(bb);
        obj->space            = Dataspace::load(bb);
        obj->file_data_offset = bb.load<std::uint64_t>();
    }

    auto nchildren = bb.load<std::uint64_t>();
    for (std::uint64_t i = 0; i < nchildren; ++i)
        obj->add_child(load_skeleton(bb, depth + 1));
    return obj;
}

std::uint64_t read_from_pieces(const Object& dset, const Dataspace& want, std::byte* packed) {
    const std::size_t elem  = dset.type.size();
    std::uint64_t     found = 0;

    for (const auto& piece : dset.pieces) {
        auto common = intersect_selections(piece.filespace, want);
        if (common.empty()) continue;

        Dataspace sub(dset.space.dims());
        sub.select_none();
        for (const auto& b : common) sub.add_box(b);

        std::vector<std::byte> sub_packed;
        piece.extract(sub, elem, sub_packed);
        scatter_into_packed(want, packed, sub, sub_packed.data(), elem);
        found += sub.npoints();
    }
    return found;
}

} // namespace h5
