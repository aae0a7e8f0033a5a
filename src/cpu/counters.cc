#include "counters.hh"

namespace cxlsim::cpu {

CounterSet &
CounterSet::operator+=(const CounterSet &o)
{
    cycles += o.cycles;
    instructions += o.instructions;
    p1 += o.p1;
    p2 += o.p2;
    p3 += o.p3;
    p4 += o.p4;
    p5 += o.p5;
    p6 += o.p6;
    p7 += o.p7;
    p8 += o.p8;
    p9 += o.p9;
    l1pfL3Miss += o.l1pfL3Miss;
    l1pfL3Hit += o.l1pfL3Hit;
    l2pfL3Miss += o.l2pfL3Miss;
    l2pfL3Hit += o.l2pfL3Hit;
    demandL3Miss += o.demandL3Miss;
    l2pfIssued += o.l2pfIssued;
    l1pfIssued += o.l1pfIssued;
    return *this;
}

CounterSet &
CounterSet::scale(double f)
{
    cycles *= f;
    instructions *= f;
    p1 *= f;
    p2 *= f;
    p3 *= f;
    p4 *= f;
    p5 *= f;
    p6 *= f;
    p7 *= f;
    p8 *= f;
    p9 *= f;
    return *this;
}

CounterSet
CounterSet::operator-(const CounterSet &o) const
{
    CounterSet r = *this;
    r.cycles -= o.cycles;
    r.instructions -= o.instructions;
    r.p1 -= o.p1;
    r.p2 -= o.p2;
    r.p3 -= o.p3;
    r.p4 -= o.p4;
    r.p5 -= o.p5;
    r.p6 -= o.p6;
    r.p7 -= o.p7;
    r.p8 -= o.p8;
    r.p9 -= o.p9;
    r.l1pfL3Miss -= o.l1pfL3Miss;
    r.l1pfL3Hit -= o.l1pfL3Hit;
    r.l2pfL3Miss -= o.l2pfL3Miss;
    r.l2pfL3Hit -= o.l2pfL3Hit;
    r.demandL3Miss -= o.demandL3Miss;
    r.l2pfIssued -= o.l2pfIssued;
    r.l1pfIssued -= o.l1pfIssued;
    return r;
}

}  // namespace cxlsim::cpu
