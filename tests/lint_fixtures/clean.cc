// Fixture: a well-behaved translation unit — every rule family
// must stay quiet (linted under virtual paths in each scoped dir).
#include <cstdint>
#include <map>
#include <vector>

namespace fixture {

struct Backend
{
    long access(long addr, int type, long now);
};

// Ordered containers iterate deterministically.
std::map<std::uint64_t, double> table_;

double
emitAll(Backend &b)
{
    double sum = 0.0;
    for (const auto &[k, v] : table_)
        sum += v;
    const long done = b.access(0, 0, 0);
    if (done < 0)
        return -1.0;
    return sum + static_cast<double>(done);
}

}  // namespace fixture
