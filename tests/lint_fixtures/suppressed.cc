// Fixture: lint:allow silences a violation on its own line or the
// line above, and the engine counts the suppression.
#include <cstdlib>

namespace fixture {

int
sameLine()
{
    return rand();  // lint:allow(det-banned-call)
}

int
lineAbove()
{
    // lint:allow(det-banned-call)
    return rand();
}

int
wrongRule()
{
    // lint:allow(det-static-local) — does not cover this rule
    return rand();  // VIOLATION line 24: still fires
}

}  // namespace fixture
