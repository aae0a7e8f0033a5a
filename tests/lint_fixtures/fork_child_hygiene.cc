/**
 * Fixture: fork-child-hygiene — between fork() and _exit()/exec the
 * child of a multithreaded process may only touch async-signal-safe
 * state; violations are followed through same-TU calls out of the
 * child block. Virtual path: src/sim/supervisor.cc.
 */

namespace fixture {

void
spawnBad()
{
    pid_t pid = ::fork();
    if (pid == 0) {
        std::lock_guard<std::mutex> g(mu);  // VIOLATION line 15
        childWork();
        exit(1);  // VIOLATION line 17
    }
    reap(pid);
}

// Reached through the same-TU call closure from the child block.
void
childWork()
{
    fflush(stdout);  // VIOLATION line 26
    if (looksBad())
        throw ServeError("no");  // VIOLATION line 28
}

// The parent branch and non-fork code stay quiet.
void
spawnGood()
{
    pid_t pid = ::fork();
    if (pid == 0) {
        ::close(3);
        ::_exit(0);
    }
    if (pid > 0)
        exit(0);  // parent side: exit() is fine here
}

}  // namespace fixture
