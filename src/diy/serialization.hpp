#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace diy {

/// Bytes from a peer or a file that do not decode: a read past the end,
/// a length the remaining bytes cannot hold, or a field out of range.
class DecodeError : public std::out_of_range {
public:
    using std::out_of_range::out_of_range;
};

/// Append-only/consume-only binary buffer used to serialize metadata,
/// bounding boxes, and dataset payloads into message-passing payloads,
/// mirroring DIY's BinaryBuffer.
class BinaryBuffer {
public:
    BinaryBuffer() = default;
    explicit BinaryBuffer(std::vector<std::byte> bytes) : data_(std::move(bytes)) {}

    const std::vector<std::byte>& data() const { return data_; }
    /// Mutable access to the backing storage, for producers that append
    /// payload bytes in place (avoids an intermediate copy). Appending is
    /// safe; never shrink below the current read position.
    std::vector<std::byte>& mutable_data() { return data_; }
    std::vector<std::byte>  take() && { return std::move(data_); }
    std::size_t                   size() const { return data_.size(); }
    std::size_t                   position() const { return pos_; }
    bool                          exhausted() const { return pos_ >= data_.size(); }
    void                          rewind() { pos_ = 0; }
    /// Unread bytes. Decoders of peer or file bytes compare a claimed
    /// length against this before they allocate for it.
    std::size_t remaining() const { return pos_ < data_.size() ? data_.size() - pos_ : 0; }

    void save_raw(const void* p, std::size_t n) {
        const auto* b = static_cast<const std::byte*>(p);
        data_.insert(data_.end(), b, b + n);
    }

    /// Advance the read cursor past `n` bytes and return a pointer to the
    /// skipped region (valid while the buffer lives) — zero-copy reads.
    const std::byte* skip(std::size_t n) {
        if (n > remaining()) throw DecodeError("diy::BinaryBuffer: skip past end");
        const std::byte* p = data_.data() + pos_;
        pos_ += n;
        return p;
    }

    void load_raw(void* p, std::size_t n) {
        if (n > remaining())
            throw DecodeError("diy::BinaryBuffer: read past end (" + std::to_string(pos_ + n)
                              + " > " + std::to_string(data_.size()) + ")");
        if (n == 0) return; // p may be an empty vector's null data()
        std::memcpy(p, data_.data() + pos_, n);
        pos_ += n;
    }

    template <typename T>
        requires std::is_trivially_copyable_v<T>
    void save(const T& value) {
        save_raw(&value, sizeof(T));
    }

    template <typename T>
        requires std::is_trivially_copyable_v<T>
    void load(T& value) {
        load_raw(&value, sizeof(T));
    }

    template <typename T>
        requires std::is_trivially_copyable_v<T>
    T load() {
        T value{};
        load_raw(&value, sizeof(T));
        return value;
    }

    void save(const std::string& s) {
        save<std::uint64_t>(s.size());
        save_raw(s.data(), s.size());
    }

    void load(std::string& s) {
        auto n = load_count(1);
        s.resize(n);
        load_raw(s.data(), n);
    }

    template <typename T>
        requires std::is_trivially_copyable_v<T>
    void save(const std::vector<T>& v) {
        save<std::uint64_t>(v.size());
        save_raw(v.data(), v.size() * sizeof(T));
    }

    template <typename T>
        requires std::is_trivially_copyable_v<T>
    void load(std::vector<T>& v) {
        auto n = load_count(sizeof(T));
        v.resize(n);
        load_raw(v.data(), n * sizeof(T));
    }

private:
    /// A length prefix counting elements of `elem_size` bytes, rejected
    /// when the unread bytes cannot hold that many: the caller's resize
    /// never allocates more than the message actually carries.
    std::size_t load_count(std::size_t elem_size) {
        const auto n = load<std::uint64_t>();
        if (n > remaining() / elem_size)
            throw DecodeError("diy::BinaryBuffer: length " + std::to_string(n) + " exceeds the "
                              + std::to_string(remaining()) + " bytes remaining");
        return static_cast<std::size_t>(n);
    }

    std::vector<std::byte> data_;
    std::size_t            pos_ = 0;
};

} // namespace diy
