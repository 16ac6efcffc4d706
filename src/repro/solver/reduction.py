"""Waterfilling reduction of the equal-time partition problem.

Because every ``E_g`` is (after the sanity filter in model selection)
increasing, the system "all devices finish at T, work sums to Q" reduces
to one scalar equation: ``S(T) = sum_g E_g^{-1}(T) = Q`` with ``S``
non-decreasing in T.  This is the equal-time partition of Lastovetsky
et al.'s functional performance model.

Each ``E_g^{-1}`` is read from a monotone table of ``E_g`` on a grid of
its trust range, so ``S`` is piecewise linear with its breakpoints at
the tables' values.  :func:`waterfill_partition` stacks the tables,
evaluates ``S`` at the merged breakpoints, and one ``searchsorted``
finds the segment where ``S`` reaches Q; linear interpolation inside it
gives T exactly, in closed form, with no iteration.

It is the *answer* of :func:`~repro.solver.partition.solve_block_partition`
on every default path (batch PLB-HeC, the service balancer, the static
balancer) whenever it validates; the interior-point refinement runs
only when it does not.  It is also the presolve of the paper's
interior-point solve (:func:`~repro.solver.partition.ipm_partition`),
where it fixes the active set, and tests cross-check the two.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, SolverError
from repro.modeling.perf_profile import DeviceModel

__all__ = ["waterfill_partition"]

#: Grid points per device table, the origin included.
_GRID_N = 513


def waterfill_partition(
    models: Sequence[DeviceModel],
    total_units: float,
    *,
    caps: Sequence[float] | None = None,
) -> tuple[np.ndarray, float]:
    """Equal-finish-time split of ``total_units``, in closed form.

    Returns ``(units, T)`` with ``units.sum() == total_units`` (exactly,
    by a final proportional correction) and ``E_g(units_g)``
    approximately T for every device that received work and is not at
    its cap.  A device takes no work while T is below ``E_g`` of the
    table's first grid cell (its fixed dispatch cost is too high).

    Parameters
    ----------
    caps:
        Optional per-device assignment ceilings (extrapolation-trust
        limits); must sum to at least ``total_units``.

    Raises
    ------
    SolverError
        If the models' tables are not finite, so no completion time can
        be bracketed.
    """
    if not models:
        raise ConfigurationError("need at least one device model")
    q = float(total_units)
    if q <= 0.0:
        raise ConfigurationError(f"total_units must be positive, got {total_units}")
    if caps is None:
        cap_arr = np.full(len(models), q)
    else:
        cap_arr = np.asarray(list(caps), dtype=float)
        if cap_arr.shape != (len(models),) or np.any(cap_arr <= 0.0):
            raise ConfigurationError("caps must be positive, one per model")
        if cap_arr.sum() < q:
            raise ConfigurationError("caps sum below total_units: infeasible")
        cap_arr = np.minimum(cap_arr, q)

    # Per device, a monotone table of E on a grid of [0, cap]: row g of
    # ``xs`` holds the grid, row g of ``ts`` the running maximum of E on
    # it.  E_g^{-1}(t) is the table read backwards: 0 below ts[g, 0],
    # the cap from ts[g, -1] on, linear in between.
    xs = np.linspace(0.0, cap_arr, _GRID_N)[1:].T
    ts = np.maximum.accumulate(
        np.array([np.asarray(m.E(x), dtype=float) for m, x in zip(models, xs)]), axis=1
    )
    if not np.isfinite(ts).all():
        raise SolverError("waterfilling could not bracket the completion time")

    # S is right-continuous, non-decreasing and linear between merged
    # breakpoints; the first breakpoint with S >= Q closes the segment
    # holding T.  ``at_breaks[g, k]`` is device g's units at breaks[k].
    breaks = np.sort(ts, axis=None)
    at_breaks = np.array([np.interp(breaks, tg, xg, left=0.0) for tg, xg in zip(ts, xs)])
    hi = int(np.searchsorted(at_breaks.sum(axis=0), q))
    if hi == len(breaks):
        # S(max) is the cap sum, which covers Q up to rounding
        raise SolverError("waterfilling could not bracket the completion time")
    # On [t_lo, t_hi) every device is linear.  Its left limit at t_hi is
    # its value there, except where t_hi opens a table entry: a device
    # jumps onto its first cell, or past a plateau of its table.
    t_hi = breaks[hi]
    first = np.minimum((ts < t_hi).sum(axis=1), ts.shape[1] - 1)
    rows = np.arange(len(models))
    opens = ts[rows, first] == t_hi
    below_hi = np.where(
        opens, np.where(first > 0, xs[rows, first], 0.0), at_breaks[:, hi]
    )
    if hi == 0:
        t_lo, below_lo = 0.0, np.zeros(len(models))
    else:
        t_lo, below_lo = breaks[hi - 1], at_breaks[:, hi - 1]
    rise = below_hi.sum() - below_lo.sum()
    if rise > 0.0 and below_hi.sum() >= q:
        frac = (q - below_lo.sum()) / rise
        t = t_lo + frac * (t_hi - t_lo)
        units = below_lo + frac * (below_hi - below_lo)
    else:  # S jumps across Q at t_hi
        t, units = float(t_hi), at_breaks[:, hi]
    total = units.sum()
    if total <= 0.0:
        raise SolverError("waterfilling assigned zero work everywhere")
    if total >= q:
        units = units * (q / total)  # scaling down never violates caps
    else:
        # distribute the (rounding-sized) deficit to devices with
        # remaining cap headroom
        deficit = q - total
        room = cap_arr - units
        if room.sum() <= 0.0:
            raise SolverError("waterfilling could not place all work under caps")
        units = units + room * min(deficit / room.sum(), 1.0)
        units = units * (q / units.sum())
    return units, float(t)
