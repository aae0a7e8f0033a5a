/**
 * Fixture: sig-async-safety follows a handler into every definition
 * shape the structural front end recognizes as a function body: a
 * member-initializer list ending in a brace initializer, a trailing
 * return type, and trailing specifiers. Defaulted and deleted
 * functions have no body to follow. Virtual path: src/sim/fixture.cc.
 */

namespace fixture {

struct Flusher
{
    Flusher(int fd) : fd_(fd), pending_{0}, ring_{gRing, 4}
    {
        fflush(nullptr);  // VIOLATION line 15
    }
    Flusher(const Flusher &) = delete;
    ~Flusher() = default;

    int depth() const noexcept;

    int fd_;
    int pending_;
    Ring ring_;
};

auto
pendingBytes(int sig) -> long
{
    return strlen(gMsg) + sig;  // VIOLATION line 30
}

int
Flusher::depth() const noexcept
{
    return atoi(gMsg) + fd_;  // VIOLATION line 36
}

void
onTerm(int sig)
{
    Flusher f = Flusher(sig);
    pendingBytes(sig);
    f.depth();
}

void
install()
{
    ::signal(SIGTERM, onTerm);
}

}  // namespace fixture
