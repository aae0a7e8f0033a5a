// Fixture: srv-eintr-retry — raw blocking POSIX calls in supervisor
// paths must ride the blessed EINTR-retrying wrappers.
#include <cstddef>

struct Reader { long read(char *b, std::size_t n); };

namespace sim {
long retryRead(int fd, char *buf, std::size_t n);
int retryPoll(void *fds, unsigned long n, int timeoutMs);
}  // namespace sim

long
pump(int fd, char *buf, std::size_t n, Reader *r)
{
    long total = r->read(buf, n);
    total += sim::retryRead(fd, buf, n);
    total += ::read(fd, buf, n);
    long w = write(fd, buf, n);
    (void)w;
    return total + poll(nullptr, 0, -1);
}

int
reap(int *status)
{
    return ::waitpid(-1, status, 0);
}
