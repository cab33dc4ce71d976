"""The clock-segment mirror reads exactly what ``clock.read`` reads.

:class:`~repro.clocks.mirror.ClockMirror` is the one place the inlined
``h + (tau - start) * rate + adj`` read lives; the sampler, the
streaming measures and the vector engine all consume it.  Its contract
is bit-equality with ``LogicalClock.read`` at non-decreasing times, for
every clock shape.
"""

from __future__ import annotations

import math
import pathlib
import random
import re

import pytest

from repro.clocks import (
    ClockMirror,
    FixedRateClock,
    LogicalClock,
    PiecewiseRateClock,
    QuantizedClock,
)
from repro.errors import ClockError

RHO = 0.05


def _rate(rng):
    return rng.uniform(1.0 / (1.0 + RHO), 1.0 + RHO)


def _piecewise(rng, starts, offset=0.0):
    return PiecewiseRateClock(RHO, [(t, _rate(rng)) for t in starts], offset)


def _inline_read(mirror, i, tau):
    """The read as a consumer inlines it (see the class docstring)."""
    if tau < mirror.next[i]:
        return (mirror.h[i] + (tau - mirror.s[i]) * mirror.r[i]
                + mirror.clocks[i].adj)
    return mirror.read_slow(i, tau)


class _OnlyRead:
    def read(self, tau):
        return 3.0 + 0.5 * tau


def test_linear_segments_describe_the_read_expression():
    rng = random.Random(1)
    fixed = FixedRateClock(RHO, rate=_rate(rng), offset=0.7, origin=-2.0)
    assert fixed.linear_segments() == ((-2.0,), (0.7,), (fixed.rate,))
    piecewise = _piecewise(rng, [0.0, 1.0, 2.5], offset=4.0)
    starts, h_at_start, rates = piecewise.linear_segments()
    assert starts == (0.0, 1.0, 2.5)
    assert h_at_start[0] == 4.0
    for k, tau in enumerate((0.25, 1.0, 7.0)):
        assert piecewise.read(tau) == \
            h_at_start[k] + (tau - starts[k]) * rates[k]
    assert QuantizedClock(piecewise, tick=0.01).linear_segments() is None


@pytest.mark.parametrize("seed", range(5))
def test_mirror_reads_are_bit_identical(seed):
    rng = random.Random(seed)
    clocks = [
        LogicalClock(FixedRateClock(RHO, rate=_rate(rng), offset=0.3),
                     adj=0.125),
        LogicalClock(_piecewise(rng, [0.0, 0.5, 0.75, 3.0, 3.0625])),
        LogicalClock(_piecewise(rng, [-1.0, 2.0], offset=-1.0), adj=-2.0),
        LogicalClock(QuantizedClock(_piecewise(rng, [0.0, 1.5]), tick=0.01)),
        _OnlyRead(),
    ]
    linear = clocks[:3]
    rows, inline = ClockMirror(clocks), ClockMirror(clocks)
    all_linear = ClockMirror(linear)
    columns = (inline.h, inline.s, inline.r, inline.next)
    # Non-decreasing times that land exactly on breakpoints (twice: a
    # repeated time is allowed) as well as between them.
    taus = sorted([rng.uniform(0.0, 4.0) for _ in range(300)]
                  + [0.0, 0.5, 0.75, 1.5, 2.0, 3.0, 3.0625] * 2)
    for step, tau in enumerate(taus):
        if step % 7 == 0:
            clocks[rng.randrange(4)].adjust(tau, rng.uniform(-0.1, 0.1))
        expected = [clock.read(tau) for clock in clocks]
        assert rows.read_all(tau) == expected
        assert [_inline_read(inline, i, tau)
                for i in range(len(clocks))] == expected
        assert all_linear.read_all(tau) == expected[:3]
    # Re-anchoring writes in place: bound column names stay valid.
    assert all(a is b for a, b in zip(
        columns, (inline.h, inline.s, inline.r, inline.next)))
    # Linear clocks end on their last piece, the others never anchor.
    assert inline.next == [math.inf, math.inf, math.inf,
                           -math.inf, -math.inf]


def test_read_before_origin_keeps_the_domain_check():
    late = LogicalClock(FixedRateClock(RHO, origin=5.0))
    mirror = ClockMirror([late])
    with pytest.raises(ClockError, match="before origin"):
        mirror.read_all(1.0)
    with pytest.raises(ClockError, match="before origin"):
        mirror.read_slow(0, 4.0)
    assert mirror.read_all(5.0) == [late.read(5.0)]
    assert mirror.read_all(6.5) == [late.read(6.5)]


def test_empty_mirror():
    assert ClockMirror([]).read_all(1.0) == []


def test_piecewise_privates_stay_inside_the_clocks_package():
    """Consumers go through ``linear_segments()``; in particular the
    vector engine no longer keeps its own copy of the segment tables."""
    import repro
    package = pathlib.Path(repro.__file__).resolve().parent
    private = re.compile(r"\._starts\b|\._h_at_start\b|\._rates\b")
    offenders = [str(path.relative_to(package))
                 for path in sorted(package.rglob("*.py"))
                 if path.parent.name != "clocks"
                 and private.search(path.read_text())]
    assert offenders == []
