#include "logging.hh"

#include <cstdint>

namespace cxlsim {

unsigned
parseUnsigned(const std::string &s, const std::string &what,
              unsigned max)
{
    std::uint64_t v = 0;
    bool ok = !s.empty();
    for (const char c : s) {
        if (c < '0' || c > '9' || v > max) {
            ok = false;
            break;
        }
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (!ok || v > max)
        throw ConfigError(what + " must be an integer in [0, " +
                          std::to_string(max) + "], got '" + s +
                          "'");
    return static_cast<unsigned>(v);
}

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "warn: %s (%s:%d)\n", msg.c_str(), file, line);
}

}  // namespace cxlsim
