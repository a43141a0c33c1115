#include "runner/snapshot_store.hh"

#include <cstdint>
#include <filesystem>
#include <system_error>
#include <vector>

#include "sim/logging.hh"
#include "util/fs.hh"

namespace wlcache {
namespace runner {

namespace fs = std::filesystem;

SnapshotStore::SnapshotStore(std::string dir) : dir_(std::move(dir)) {}

std::string
SnapshotStore::setPath(const std::string &key) const
{
    return (fs::path(dir_) / (key + ".snapset")).string();
}

bool
SnapshotStore::loadSet(const std::string &key,
                       nvp::SnapshotSet &out) const
{
    if (!enabled())
        return false;
    std::vector<std::uint8_t> blob;
    if (!util::readFileBytes(setPath(key), blob))
        return false;
    if (nvp::decodeSnapshotSet(blob, out))
        return true;
    warn("snapshot store: discarding corrupted set %s",
         setPath(key).c_str());
    std::error_code ec;
    fs::remove(setPath(key), ec);
    return false;
}

void
SnapshotStore::storeSet(const std::string &key,
                        const nvp::SnapshotSet &set) const
{
    if (!enabled())
        return;
    std::string err;
    if (!util::writeFileAtomic(dir_, setPath(key),
                               nvp::encodeSnapshotSet(set), &err))
        warn("snapshot store: %s", err.c_str());
}

} // namespace runner
} // namespace wlcache
