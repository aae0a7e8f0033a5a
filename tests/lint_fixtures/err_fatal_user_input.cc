// Fixture: err-fatal-user-input fires on SIM_FATAL in config
// parsing (virtual path src/cxl/device_profile_util.cc).
#define SIM_FATAL_DEFINED_ELSEWHERE 1

namespace fixture {

void
parseRate(double v)
{
    if (v < 0.0)
        SIM_FATAL("rate out of range");  // VIOLATION line 11
}

}  // namespace fixture
