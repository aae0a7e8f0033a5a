/**
 * Fixture: reasoned lint:allow on the flow rules — every violation
 * in this file is suppressed and carries a reason that the engine
 * must surface (see the suppressions array in --json).
 * Virtual paths: src/sim/supervisor.cc, src/mem/fixture.cc.
 */

namespace fixture {

void
spawn()
{
    pid_t pid = ::fork();
    if (pid == 0) {
        // lint:allow(fork-child-hygiene: helper runs pre-thread, stdio is safe here)
        fflush(stdout);
        ::_exit(0);
    }
}

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
