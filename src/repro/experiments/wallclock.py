"""Sweep-equality helper shared by the benchmark and the tests.

:func:`points_equal` compares two sweeps' aggregates bit for bit.  The
``perfbench/`` sweep workload uses it to check that a warm-cache pass
returns the cold pass's points, and the parallel-engine tests use it to
check that ``jobs=N`` aggregates equal the serial ones.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.runner import SweepPoint

__all__ = ["points_equal"]


def points_equal(a: Sequence[SweepPoint], b: Sequence[SweepPoint]) -> bool:
    """Exact (bitwise) equality of two sweeps' aggregates."""
    if len(a) != len(b):
        return False
    for pa, pb in zip(a, b):
        if (pa.app_name, pa.size, pa.num_machines) != (
            pb.app_name,
            pb.size,
            pb.num_machines,
        ):
            return False
        if set(pa.outcomes) != set(pb.outcomes):
            return False
        for name, oa in pa.outcomes.items():
            ob = pb.outcomes[name]
            if (
                oa.makespans != ob.makespans
                or oa.idle_fractions != ob.idle_fractions
                or oa.distributions != ob.distributions
                or oa.overheads != ob.overheads
                or oa.rebalances != ob.rebalances
            ):
                return False
    return True
