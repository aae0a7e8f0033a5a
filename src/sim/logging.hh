/**
 * @file
 * Minimal logging / fatal-error helpers in the spirit of gem5's
 * base/logging.hh: panic() for internal invariant violations, fatal()
 * for user-configuration errors, warn() for recoverable oddities.
 */

#ifndef CXLSIM_SIM_LOGGING_HH
#define CXLSIM_SIM_LOGGING_HH

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace cxlsim {

/**
 * Invalid user-supplied configuration (bad CLI flag, out-of-range
 * profile parameter, unknown memory setup). Thrown instead of
 * aborting so front ends can print a usage message and exit
 * cleanly; SIM_PANIC remains reserved for internal invariants.
 */
class ConfigError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Parse a user-supplied unsigned option value (the CLI flag or
 * argument named @p what). Only plain decimal digits in
 * [0, @p max] are accepted: strtoul alone would wrap "-1" to
 * ULONG_MAX and silently truncate values past UINT_MAX.
 * @throws ConfigError on anything else, including "".
 */
unsigned parseUnsigned(const std::string &s, const std::string &what,
                       unsigned max = UINT_MAX);

/** Abort: an internal simulator invariant was violated (a bug). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Exit with error: the user supplied an invalid configuration. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print a warning to stderr and continue. */
void warnImpl(const char *file, int line, const std::string &msg);

}  // namespace cxlsim

#define SIM_PANIC(msg) ::cxlsim::panicImpl(__FILE__, __LINE__, (msg))
#define SIM_FATAL(msg) ::cxlsim::fatalImpl(__FILE__, __LINE__, (msg))
#define SIM_WARN(msg) ::cxlsim::warnImpl(__FILE__, __LINE__, (msg))

/** Assert a simulator invariant; always on (not tied to NDEBUG). */
#define SIM_ASSERT(cond, msg)                                              \
    do {                                                                   \
        if (!(cond))                                                       \
            SIM_PANIC(std::string("assertion failed: ") + #cond + ": " +  \
                      (msg));                                              \
    } while (0)

#endif  // CXLSIM_SIM_LOGGING_HH
