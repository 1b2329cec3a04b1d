/**
 * @file
 * Minimal byte-oriented serialization used by the pinball format and
 * the on-disk artifact cache.
 *
 * The format is little-endian, length-prefixed, and versioned by the
 * callers (each file type writes its own magic + version).  A trailing
 * FNV checksum catches truncation and corruption on load.
 */

#ifndef SPLAB_SUPPORT_SERIALIZE_HH
#define SPLAB_SUPPORT_SERIALIZE_HH

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "logging.hh"
#include "types.hh"

namespace splab
{

/** Accumulates primitive values into a byte buffer. */
class ByteWriter
{
  public:
    /** Append a trivially-copyable scalar. */
    template <typename T>
    void
    put(T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::size_t at = buf.size();
        buf.resize(at + sizeof(T));
        std::memcpy(buf.data() + at, &value, sizeof(T));
    }

    /** Append a length-prefixed string. */
    void putString(const std::string &s);

    /** Append @p n raw bytes verbatim (no length prefix). */
    void
    putRaw(const u8 *data, std::size_t n)
    {
        buf.insert(buf.end(), data, data + n);
    }

    /** Append a length-prefixed vector of scalars. */
    template <typename T>
    void
    putVector(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        put<u64>(v.size());
        const auto *p = reinterpret_cast<const u8 *>(v.data());
        buf.insert(buf.end(), p, p + v.size() * sizeof(T));
    }

    const std::vector<u8> &bytes() const { return buf; }

    /** Write buffer to a file with a trailing checksum. @return ok. */
    bool saveFile(const std::string &path) const;

  private:
    std::vector<u8> buf;
};

/** Reads primitive values back out of a byte buffer. */
class ByteReader
{
  public:
    explicit ByteReader(std::vector<u8> data)
        : buf(std::move(data)), pos(0)
    {}

    /** Load a checksummed file; fatal() on mismatch or I/O error. */
    static ByteReader loadFile(const std::string &path);

    /** Load a checksummed file with one read; nullopt when it is
     *  absent, unreadable, truncated or fails its checksum. */
    static std::optional<ByteReader> tryLoadFile(const std::string &path);

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        SPLAB_ASSERT(pos + sizeof(T) <= buf.size(),
                     "serialized data truncated");
        std::memcpy(&value, buf.data() + pos, sizeof(T));
        pos += sizeof(T);
        return value;
    }

    std::string getString();

    template <typename T>
    std::vector<T>
    getVector()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        u64 n = get<u64>();
        SPLAB_ASSERT(pos + n * sizeof(T) <= buf.size(),
                     "serialized vector truncated");
        std::vector<T> v(n);
        std::memcpy(v.data(), buf.data() + pos, n * sizeof(T));
        pos += n * sizeof(T);
        return v;
    }

    /** Consume @p n raw bytes (no length prefix); the counterpart of
     *  ByteWriter::putRaw. */
    std::vector<u8>
    getRaw(std::size_t n)
    {
        SPLAB_ASSERT(pos + n <= buf.size(),
                     "serialized data truncated");
        std::vector<u8> v(buf.begin() + pos, buf.begin() + pos + n);
        pos += n;
        return v;
    }

    bool atEnd() const { return pos >= buf.size(); }
    std::size_t remaining() const { return buf.size() - pos; }

  private:
    std::vector<u8> buf;
    std::size_t pos;
};

} // namespace splab

#endif // SPLAB_SUPPORT_SERIALIZE_HH
