#include "interrupt.hh"

#include <signal.h>

#include <csignal>

namespace cxlsim::sim {

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void
interruptHandler(int)
{
    g_interrupted = 1;
}

void
setHandler(void (*handler)(int), int flags)
{
    struct sigaction sa = {};
    sa.sa_handler = handler;
    ::sigemptyset(&sa.sa_mask);
    sa.sa_flags = flags;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

}  // namespace

void
installInterruptHandlers()
{
    setHandler(interruptHandler, SA_RESETHAND | SA_RESTART);
}

bool
interruptRequested()
{
    return g_interrupted != 0;
}

void
resetInterruptHandlers()
{
    g_interrupted = 0;
    setHandler(SIG_DFL, 0);
}

}  // namespace cxlsim::sim
