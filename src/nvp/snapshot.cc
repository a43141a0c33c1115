#include "nvp/snapshot.hh"

#include "sim/snapshot.hh"

namespace wlcache {
namespace nvp {

namespace {

/** Store-blob magic: "WLSN" little-endian. */
constexpr std::uint32_t kBlobMagic = 0x4e534c57u;
/** Snapshot-set magic: "WLSS" little-endian. */
constexpr std::uint32_t kSetMagic = 0x53534c57u;
constexpr std::uint32_t kSetVersion = 1;

/**
 * Bounds-checked little-endian cursor: a short read fails instead of
 * tripping SnapshotReader's panic-on-underflow contract, so a corrupt
 * store entry reads as a miss.
 */
struct Cursor
{
    const std::uint8_t *p;
    std::size_t n;
    std::size_t pos = 0;

    std::size_t left() const { return n - pos; }

    template <typename T>
    bool le(T &v)
    {
        if (left() < sizeof(T))
            return false;
        v = 0;
        for (unsigned i = 0; i < sizeof(T); ++i)
            v |= static_cast<T>(p[pos++]) << (8 * i);
        return true;
    }
};

/** decodeSnapshot() over the @p n bytes at @p p. */
bool
decodeBlob(const std::uint8_t *p, std::size_t n, SystemSnapshot &out)
{
    Cursor c{ p, n };
    std::uint32_t magic = 0, version = 0;
    std::uint64_t key_len = 0;
    if (!c.le(magic) || magic != kBlobMagic || !c.le(version) ||
        version != SystemSnapshot::kFormatVersion || !c.le(key_len) ||
        c.left() < key_len)
        return false;
    SystemSnapshot s;
    s.compat_key.assign(reinterpret_cast<const char *>(p + c.pos),
                        static_cast<std::size_t>(key_len));
    c.pos += static_cast<std::size_t>(key_len);

    std::uint64_t state_len = 0;
    if (!c.le(s.cycle) || !c.le(s.event_index) || !c.le(state_len) ||
        state_len == 0 || c.left() != state_len)
        return false;
    s.state.assign(p + c.pos, p + n);

    out = std::move(s);
    return true;
}

} // namespace

const SystemSnapshot *
SnapshotSet::bestBefore(Cycle c) const
{
    const SystemSnapshot *best = nullptr;
    for (const SystemSnapshot &s : snaps) {
        if (s.cycle >= c)
            break;
        best = &s;
    }
    return best;
}

std::vector<std::uint8_t>
encodeSnapshot(const SystemSnapshot &s)
{
    SnapshotWriter w;
    w.u32(kBlobMagic);
    w.u32(SystemSnapshot::kFormatVersion);
    w.str(s.compat_key);
    w.u64(s.cycle);
    w.u64(s.event_index);
    w.vecU8(s.state);
    return w.take();
}

bool
decodeSnapshot(const std::vector<std::uint8_t> &blob, SystemSnapshot &out)
{
    return decodeBlob(blob.data(), blob.size(), out);
}

std::vector<std::uint8_t>
encodeSnapshotSet(const SnapshotSet &set)
{
    SnapshotWriter w;
    w.u32(kSetMagic);
    w.u32(kSetVersion);
    w.u64(set.interval);
    w.u64(set.snaps.size());
    for (const SystemSnapshot &snap : set.snaps)
        w.vecU8(encodeSnapshot(snap));
    return w.take();
}

bool
decodeSnapshotSet(const std::vector<std::uint8_t> &blob,
                  SnapshotSet &out)
{
    Cursor c{ blob.data(), blob.size() };
    std::uint32_t magic = 0, version = 0;
    std::uint64_t count = 0;
    SnapshotSet set;
    if (!c.le(magic) || magic != kSetMagic || !c.le(version) ||
        version != kSetVersion || !c.le(set.interval) || !c.le(count))
        return false;
    // Every entry starts with its 8-byte length, so a count the bytes
    // left cannot hold is corrupt and must not size an allocation.
    if (count > c.left() / 8)
        return false;
    set.snaps.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t len = 0;
        SystemSnapshot snap;
        if (!c.le(len) || c.left() < len ||
            !decodeBlob(blob.data() + c.pos,
                        static_cast<std::size_t>(len), snap))
            return false;
        c.pos += static_cast<std::size_t>(len);
        set.snaps.push_back(std::move(snap));
    }
    if (c.left() != 0)
        return false;

    out = std::move(set);
    return true;
}

} // namespace nvp
} // namespace wlcache
