#include "run_cache.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "sim/logging.hh"
#include "stats/rows.hh"

namespace cxlsim::sweep {

namespace {

constexpr const char *kMagic = "melody-runcache 1\n";

/** Advisory lock file guarding writes vs `cache clear`. */
constexpr const char *kLockName = ".melody-cache.lock";

/** Consecutive store failures before flipping read-only. One
 *  failure can be a transient (AV scanner, briefly-full tmpfs);
 *  three in a row is a full disk. */
constexpr unsigned kDegradeAfter = 3;

/** flock(2) with EINTR retry; false when the lock is unusable. */
bool
lockFile(int fd, int op)
{
    if (fd < 0)
        return false;
    for (;;) {
        if (::flock(fd, op) == 0)
            return true;
        if (errno != EINTR)
            return false;
    }
}

/** RAII shared/exclusive hold on an flock'd fd. */
class ScopedFlock
{
  public:
    ScopedFlock(int fd, int op) : fd_(fd), held_(lockFile(fd, op)) {}
    ~ScopedFlock()
    {
        if (held_)
            lockFile(fd_, LOCK_UN);
    }
    ScopedFlock(const ScopedFlock &) = delete;
    ScopedFlock &operator=(const ScopedFlock &) = delete;

  private:
    int fd_;
    bool held_;
};

/** Read a whole regular file; false if unreadable. Anything else at
 *  the path (a directory, a FIFO, or a symlink to a device such as
 *  /dev/zero that never reaches EOF) and a read error are clean
 *  misses; a truncated file is caught by the checksum — never wrong
 *  payload bytes. */
bool
readFile(const std::string &path, std::string *out)
{
    // O_NONBLOCK: opening a FIFO for reading would wait for a writer.
    const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st;
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);
        return false;
    }
    std::FILE *f = ::fdopen(fd, "rb");
    if (!f) {
        ::close(fd);
        return false;
    }
    std::string data;
    char buf[1 << 14];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    if (!ok)
        return false;
    *out = std::move(data);
    return true;
}

/** Consume one '\n'-terminated line from @p data at @p pos. */
bool
takeLine(const std::string &data, std::size_t *pos,
         std::string *line)
{
    const std::size_t nl = data.find('\n', *pos);
    if (nl == std::string::npos)
        return false;
    line->assign(data, *pos, nl - *pos);
    *pos = nl + 1;
    return true;
}

}  // namespace

RunCache::RunCache(std::string dir, std::string salt)
    : dir_(std::move(dir)), salt_(std::move(salt))
{
}

RunCache::~RunCache()
{
    if (lockFd_ >= 0)
        ::close(lockFd_);
}

int
RunCache::lockFd()
{
    if (!lockTried_) {
        lockTried_ = true;
        // O_CLOEXEC so a child process re-opens its own
        // description: flock holds are per open file description,
        // and a shared inherited one would self-deadlock nothing
        // but would also protect nothing.
        lockFd_ = ::open((dir_ + "/" + kLockName).c_str(),
                         O_CREAT | O_RDWR | O_CLOEXEC, 0666);
    }
    return lockFd_;
}

std::string
RunCache::pathFor(const std::string &key) const
{
    // Salt first so a salt bump re-addresses (not just
    // re-validates) every entry: stale generations never collide
    // with fresh ones, and pruning is a plain directory wipe.
    std::uint64_t h = stats::fnv1a64(salt_);
    h = stats::fnv1a64(key, h);
    return dir_ + "/" + stats::hex64(h) + ".rcache";
}

bool
RunCache::lookup(const std::string &key, std::size_t expectRows,
                 std::vector<std::string> *rows)
{
    std::string data;
    if (!readFile(pathFor(key), &data)) {
        ++stats_.misses;
        return false;
    }

    // Header: magic line, salt line, key line, "<paylen> <hash>".
    std::size_t pos = 0;
    std::string line;
    bool ok = data.compare(0, std::string(kMagic).size(), kMagic) ==
              0;
    if (ok) {
        pos = std::string(kMagic).size();
        ok = takeLine(data, &pos, &line) && line == salt_;
    }
    if (ok)
        ok = takeLine(data, &pos, &line) && line == key;
    std::string payload;
    if (ok && takeLine(data, &pos, &line)) {
        char hashHex[17];
        unsigned long long paylen = 0;
        ok = std::sscanf(line.c_str(), "%llu %16s", &paylen,
                         hashHex) == 2 &&
             data.size() - pos == paylen;
        if (ok) {
            payload = data.substr(pos);
            ok = stats::hex64(stats::fnv1a64(payload)) == hashHex;
        }
    } else {
        ok = false;
    }

    std::vector<std::string> decoded;
    if (ok)
        ok = stats::decodeRows(payload, &decoded) &&
             decoded.size() == expectRows;
    if (!ok) {
        // Present but unusable: corrupted write, salt/key
        // collision, or format drift. Recompute and overwrite.
        ++stats_.corrupt;
        ++stats_.misses;
        return false;
    }
    *rows = std::move(decoded);
    ++stats_.hits;
    return true;
}

RunCache::DirStats
RunCache::scanDir(const std::string &dir)
{
    namespace fs = std::filesystem;
    DirStats ds;
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec)
        return ds;  // missing/unreadable directory: empty cache
    const std::string magic = kMagic;
    for (const auto &entry : it) {
        if (!entry.is_regular_file(ec))
            continue;
        const std::string path = entry.path().string();
        if (entry.path().filename() == kLockName)
            continue;  // infrastructure, not an entry and not foreign
        if (entry.path().extension() != ".rcache") {
            ++ds.foreign;
            continue;
        }
        // Only the header is needed: magic line then salt line.
        std::string head;
        bool ok = false;
        if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
            char buf[512];
            const std::size_t n =
                std::fread(buf, 1, sizeof(buf), f);
            head.assign(buf, n);
            ok = !std::ferror(f);
            std::fclose(f);
        }
        std::string saltLine;
        std::size_t pos = magic.size();
        if (ok)
            ok = head.compare(0, magic.size(), magic) == 0 &&
                 takeLine(head, &pos, &saltLine);
        if (!ok) {
            ++ds.foreign;
            continue;
        }
        ++ds.entries;
        ds.bytes += entry.file_size(ec);
        ++ds.perSalt[saltLine];
    }
    return ds;
}

std::uint64_t
RunCache::clearDir(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::uint64_t removed = 0;
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec)
        return 0;
    // Exclusive hold: live writers hold the lock shared across
    // their temp-write + rename pair, so once this acquires there
    // is no half-written temp in the directory and none can appear
    // until it releases. Writers blocked here just retry-free
    // proceed afterwards: their upcoming store simply recreates
    // the entry the clear removed.
    const int lfd = ::open((dir + "/" + kLockName).c_str(),
                           O_CREAT | O_RDWR | O_CLOEXEC, 0666);
    {
        ScopedFlock guard(lfd, LOCK_EX);
        for (const auto &entry : it) {
            if (!entry.is_regular_file(ec))
                continue;
            if (entry.path().filename() == kLockName)
                continue;
            const auto ext = entry.path().extension();
            if (ext != ".rcache" && ext != ".tmp")
                continue;
            if (fs::remove(entry.path(), ec) && !ec)
                ++removed;
        }
    }
    if (lfd >= 0)
        ::close(lfd);
    return removed;
}

void
RunCache::store(const std::string &key,
                const std::vector<std::string> &rows)
{
    namespace fs = std::filesystem;
    if (degraded_) {
        // Read-only pass-through: persistent write failure already
        // tripped; don't burn syscalls re-proving the disk is full.
        ++stats_.storesSuppressed;
        return;
    }
    std::error_code ec;
    fs::create_directories(dir_, ec);

    const std::string payload = stats::encodeRows(rows);
    std::string data = kMagic;
    data += salt_ + "\n";
    data += key + "\n";
    char hdr[64];
    std::snprintf(hdr, sizeof(hdr), "%llu %s\n",
                  static_cast<unsigned long long>(payload.size()),
                  stats::hex64(stats::fnv1a64(payload)).c_str());
    data += hdr;
    data += payload;

    const std::string path = pathFor(key);
    // Pid-unique temp: two processes storing the same key must not
    // clobber each other's half-written file. Suffix-last keeps the
    // extension ".tmp" so clearDir() still sweeps strays.
    const std::string tmp =
        path + "." + std::to_string(::getpid()) + ".tmp";
    // Shared hold across write + rename: `melody cache clear`
    // (exclusive) can then never interleave inside the pair. A
    // failed lock open degrades to the old unlocked behaviour
    // rather than disabling the cache.
    ScopedFlock lock(lockFd(), LOCK_SH);
    bool ok = false;
    if (std::FILE *f = std::fopen(tmp.c_str(), "wb")) {
        ok = std::fwrite(data.data(), 1, data.size(), f) ==
             data.size();
        ok = (std::fclose(f) == 0) && ok;
    }
    if (ok)
        ok = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok) {
        // Every failure branch — open, short write, close, rename —
        // lands here, so the pid-unique temp is always unlinked and
        // a full disk never accumulates `.tmp` litter on top.
        fs::remove(tmp, ec);
        ++stats_.storeFailures;
        if (!warnedStoreFailure_) {
            warnedStoreFailure_ = true;
            SIM_WARN("run cache: cannot write under '" + dir_ +
                     "'; results for failed stores are recomputed");
        }
        if (++storeFailStreak_ >= kDegradeAfter) {
            degraded_ = true;
            SIM_WARN("run cache: persistent write failure; cache "
                     "degraded to read-only for this run");
        }
        return;
    }
    storeFailStreak_ = 0;
    ++stats_.stores;
}

}  // namespace cxlsim::sweep
