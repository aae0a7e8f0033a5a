/**
 * Fixture: reasoned lint:allow — every violation in this file is
 * suppressed and carries a reason that the engine must surface (see
 * the suppressions array in --json). Virtual path: src/mem/fixture.cc.
 */

namespace fixture {

int
probe()
{
    // lint:allow(det-banned-call: warm-up probe, value never reaches output)
    return rand();
}

void
onSig(int sig)
{
    // lint:allow(sig-async-safety: buffer is preallocated, snprintf is safe on this libc)
    snprintf(gBuf, sizeof gBuf, "%d", sig);
}

void
install()
{
    ::signal(SIGUSR1, onSig);
}

}  // namespace fixture
