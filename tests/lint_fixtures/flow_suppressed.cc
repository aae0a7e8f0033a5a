/**
 * Fixture: reasoned lint:allow on the flow rules — every violation
 * in this file is suppressed and carries a reason that the engine
 * must surface (see the suppressions array in --json).
 * Virtual path: src/mem/fixture.cc.
 */

namespace fixture {

void
probe(MemBackend *b)
{
    // lint:allow(ras-status-flow: warm-up probe, result intentionally unused)
    ras::Status st = b->accessEx(1);
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
