#include "common/fsio.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

namespace sipt::fsio
{

namespace
{

/** ::write() @p bytes to @p fd in full, retrying short writes and
 *  EINTR. False on any hard write error. */
bool
writeAll(int fd, std::string_view bytes)
{
    const char *p = bytes.data();
    std::size_t left = bytes.size();
    while (left > 0) {
        const ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    return true;
}

/** fsync a directory so a rename inside it is durable. */
bool
syncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

} // namespace

bool
atomicPublish(const std::string &path, std::string_view bytes,
              const std::string &tmp_suffix)
{
    const std::string tmp = path + tmp_suffix;
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    const bool wrote = writeAll(fd, bytes) && ::fsync(fd) == 0;
    ::close(fd);
    if (!wrote || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    const auto slash = path.find_last_of('/');
    syncDir(slash == std::string::npos
                ? std::string(".")
                : path.substr(0, slash));
    return true;
}

} // namespace sipt::fsio
