#include "serialize.hh"

#include <cstdio>

#include "rng.hh"

namespace splab
{

namespace
{

u64
rawChecksum(const std::vector<u8> &buf)
{
    return hashBytes(buf.data(), buf.size());
}

/** Read a whole file into memory. @return false on I/O error. */
bool
slurp(const std::string &path, std::vector<u8> &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    if (size < 0) {
        std::fclose(f);
        return false;
    }
    out.resize(static_cast<std::size_t>(size));
    std::size_t got = size ? std::fread(out.data(), 1, out.size(), f) : 0;
    std::fclose(f);
    return got == out.size();
}

/**
 * Read a checksummed file and strip its trailing checksum.
 * @return false, with @p why naming the failure, when the file is
 *         unreadable, shorter than a checksum or fails validation.
 */
bool
readChecked(const std::string &path, std::vector<u8> &data,
            const char *&why)
{
    if (!slurp(path, data)) {
        why = "cannot read file";
        return false;
    }
    if (data.size() < sizeof(u64)) {
        why = "file too small to be valid";
        return false;
    }
    u64 stored;
    std::memcpy(&stored, data.data() + data.size() - sizeof(u64),
                sizeof(u64));
    data.resize(data.size() - sizeof(u64));
    if (stored != rawChecksum(data)) {
        why = "checksum mismatch (corrupt file)";
        return false;
    }
    return true;
}

} // namespace

void
ByteWriter::putString(const std::string &s)
{
    put<u64>(s.size());
    const auto *p = reinterpret_cast<const u8 *>(s.data());
    buf.insert(buf.end(), p, p + s.size());
}

bool
ByteWriter::saveFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    u64 csum = rawChecksum(buf);
    bool ok = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size() &&
              std::fwrite(&csum, 1, sizeof(csum), f) == sizeof(csum);
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

ByteReader
ByteReader::loadFile(const std::string &path)
{
    std::vector<u8> data;
    const char *why = nullptr;
    if (!readChecked(path, data, why))
        SPLAB_FATAL(why, ": ", path);
    return ByteReader(std::move(data));
}

std::optional<ByteReader>
ByteReader::tryLoadFile(const std::string &path)
{
    std::vector<u8> data;
    const char *why = nullptr;
    if (!readChecked(path, data, why))
        return std::nullopt;
    return ByteReader(std::move(data));
}

std::string
ByteReader::getString()
{
    u64 n = get<u64>();
    SPLAB_ASSERT(pos + n <= buf.size(), "serialized string truncated");
    std::string s(reinterpret_cast<const char *>(buf.data() + pos), n);
    pos += n;
    return s;
}

} // namespace splab
