"""High-level block-partition API.

:func:`solve_block_partition` is what the PLB-HeC scheduler, the
service balancer and the offline static balancer call.  The solve is
staged:

1. **Trust caps.**  Fitted curves are only trustworthy near the probed
   range, so each device's assignment is capped at a multiple of its
   largest profiled block size (caps are relaxed proportionally if they
   cannot cover the quantum).
2. **Waterfilling** (:mod:`repro.solver.reduction`): the common finish
   time in closed form, from the merged breakpoints of the devices'
   monotone time tables.  It respects the caps and reveals the *active
   set*: devices whose fixed dispatch cost exceeds the common finish
   time get zero work (the paper's eq. 4 equality system is infeasible
   for them), devices at their trust cap are pinned there.  A split
   that validates is the answer (``method="waterfill"``): it is the
   equal-time partition of the monotone fits, and an interior-point
   refinement would move it by ~1e-6 of the quantum, below what an
   integer block size can act on.
3. **Interior-point refinement** (the paper's method), only when the
   waterfilling split fails validation: the equal-time NLP (eq. 3-5)
   is solved over the free devices with the line-search filter method.
4. If that fails too, the waterfilling split is accepted at a looser
   spread; failing that, a measured-rate proportional split under the
   caps limits the damage (``method="proportional"``).

:func:`ipm_partition` is the paper's solve by name (caps, presolve,
interior point on the free set, validation), raising instead of falling
back.  The Sec. V.a overhead experiment and the selection ablation use
it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, SolverError
from repro.modeling.perf_profile import DeviceModel
from repro.solver.ipm import IPMOptions, InteriorPointSolver
from repro.solver.problem import build_partition_nlp, initial_partition_point
from repro.solver.reduction import waterfill_partition
from repro.util.logging import get_logger

__all__ = ["PartitionResult", "ipm_partition", "solve_block_partition"]

_log = get_logger("solver.partition")

#: Assignments may exceed the profiled range by at most this factor —
#: the same slack the model-sanity check (`modeling.model_select`) spans.
TRUST_SLACK = 4.0

#: Largest relative finish-time spread (on the models' own predictions)
#: an accepted split may show among devices strictly inside their
#: bounds; the last waterfilling stage accepts up to the looser bound.
SPREAD_TOL = 0.05
LOOSE_SPREAD_TOL = 0.1


@dataclass(frozen=True)
class PartitionResult:
    """A computed distribution of one work quantum across devices.

    Attributes
    ----------
    device_ids:
        Processing units in solve order.
    units:
        Real-valued block sizes, one per device; sums to the quantum.
    predicted_time:
        The common completion time T the models predict.
    method:
        ``"waterfill"``, ``"ipm"`` or ``"proportional"`` — which path
        produced the answer.
    converged:
        Whether the producing method reported success.
    iterations:
        Interior-point iterations (0 unless ``method == "ipm"``).
    kkt_error:
        Final scaled KKT error (NaN unless ``method == "ipm"``).
    solve_time_s:
        Wall-clock seconds the whole chain took (:func:`ipm_partition`
        times the solve the paper reports as ~170 ms on their master
        node).
    """

    device_ids: tuple[str, ...]
    units: np.ndarray = field(repr=False)
    predicted_time: float
    method: str
    converged: bool
    iterations: int
    kkt_error: float
    solve_time_s: float

    @property
    def fractions(self) -> dict[str, float]:
        """Normalised share per device (sums to 1)."""
        total = float(self.units.sum())
        if total <= 0.0:
            return {d: 0.0 for d in self.device_ids}
        return {
            d: float(u) / total for d, u in zip(self.device_ids, self.units)
        }

    @property
    def units_by_device(self) -> dict[str, float]:
        """Real-valued units per device id."""
        return {d: float(u) for d, u in zip(self.device_ids, self.units)}


def _trust_caps(models: Sequence[DeviceModel], q: float) -> np.ndarray:
    """Per-device assignment ceilings, relaxed to cover the quantum."""
    caps = np.array([max(TRUST_SLACK * m.x_max, 1.0) for m in models])
    caps = np.minimum(caps, q)
    total = caps.sum()
    if total < 1.02 * q:
        caps = caps * (1.02 * q / total)
        caps = np.minimum(caps, q)
        # a second pass: devices clipped at q free no headroom; spread
        # the shortfall over the others
        short = 1.02 * q - caps.sum()
        if short > 0:
            room = q - caps
            if room.sum() > 0:
                caps = caps + room * min(short / room.sum(), 1.0)
    return caps


def _validate(
    units: np.ndarray,
    predicted: float,
    models: Sequence[DeviceModel],
    total_units: float,
    caps: np.ndarray,
    *,
    spread_tol: float,
) -> bool:
    """Sanity-check a candidate partition against its own models.

    The equal-time property is only required of devices strictly inside
    their bounds: devices with (near-)zero work or pinned at their trust
    cap legitimately finish early.
    """
    if not np.all(np.isfinite(units)) or np.any(units < -1e-9):
        return False
    if abs(units.sum() - total_units) > 1e-6 * total_units + 1e-9:
        return False
    if not np.isfinite(predicted) or predicted <= 0.0:
        return False
    times = [
        float(m.E(u))
        for m, u, c in zip(models, units, caps)
        if u > 1e-9 * total_units and u < c * (1.0 - 1e-9)
    ]
    if not times:
        # everything at a bound: fall back to requiring finite times only
        return True
    spread = (max(times) - min(times)) / max(max(times), 1e-300)
    return spread <= spread_tol


def _as_list(
    models: Mapping[str, DeviceModel] | Sequence[DeviceModel], total_units: float
) -> tuple[tuple[str, ...], list[DeviceModel], float]:
    """Device ids, the models in solve order, and the checked quantum."""
    if isinstance(models, Mapping):
        device_ids = tuple(models.keys())
        model_list = [models[d] for d in device_ids]
    else:
        model_list = list(models)
        device_ids = tuple(m.device_id for m in model_list)
    if not model_list:
        raise ConfigurationError("need at least one device model")
    q = float(total_units)
    if q <= 0.0:
        raise ConfigurationError(f"total_units must be positive, got {total_units}")
    return device_ids, model_list, q


def _refine(
    model_list: Sequence[DeviceModel],
    q: float,
    caps: np.ndarray,
    units_wf: np.ndarray,
    opts: IPMOptions | None,
) -> tuple[np.ndarray, float, int, float]:
    """Interior-point solve over the presolve's free set.

    Returns ``(units, predicted_time, iterations, kkt_error)`` for a
    split that validates; raises :class:`SolverError` otherwise.
    """
    # The adaptive barrier update is the subject of the paper's solver
    # reference (Nocedal, Wächter & Waltz 2009) and roughly halves the
    # iteration count on partition problems; see the solver benchmarks.
    opts = opts or IPMOptions(tol=1e-8, max_iter=150, barrier_strategy="adaptive")
    pinned = units_wf >= caps * (1.0 - 1e-9)
    dropped = units_wf <= 1e-9 * q
    free = [i for i in range(len(model_list)) if not pinned[i] and not dropped[i]]
    q_free = q - float(units_wf[pinned].sum())
    if len(free) < 2 or q_free <= 0:
        raise SolverError("free set too small for an interior-point refinement")
    sub_models = [model_list[i] for i in free]
    sub_caps = caps[free]
    nlp = build_partition_nlp(sub_models, q_free, upper_units=sub_caps)
    z0 = initial_partition_point(sub_models, q_free, upper_units=sub_caps)
    result = InteriorPointSolver(opts).solve_with_retry(nlp, z0)
    if result.converged:
        sub_units = np.maximum(result.x[: len(free)], 0.0) * q_free
        if sub_units.sum() > 0:
            sub_units *= q_free / sub_units.sum()
        units = np.where(pinned, caps, 0.0)
        units[free] = sub_units
        predicted = float(result.x[2 * len(free)])
        if _validate(units, predicted, model_list, q, caps, spread_tol=SPREAD_TOL):
            return units, predicted, result.iterations, result.kkt_error
    raise SolverError(f"IPM refinement did not validate (status={result.status!r})")


def ipm_partition(
    models: Mapping[str, DeviceModel] | Sequence[DeviceModel],
    total_units: float,
    *,
    ipm_options: IPMOptions | None = None,
) -> PartitionResult:
    """The paper's solve: an interior-point partition, or an error.

    Trust caps and the waterfilling presolve fix the active set, the
    interior-point method solves the equal-time NLP over the free
    devices, and the answer is validated as in
    :func:`solve_block_partition`.

    Raises
    ------
    SolverError
        When the presolve or the interior-point stage fails, or its
        answer does not validate.
    """
    device_ids, model_list, q = _as_list(models, total_units)
    t_start = time.perf_counter()
    if len(model_list) == 1:
        units, predicted = np.array([q]), float(model_list[0].E(q))
        iterations, kkt = 0, 0.0
    else:
        caps = _trust_caps(model_list, q)
        units_wf, _ = waterfill_partition(model_list, q, caps=caps)
        units, predicted, iterations, kkt = _refine(
            model_list, q, caps, units_wf, ipm_options
        )
    return PartitionResult(
        device_ids=device_ids,
        units=units,
        predicted_time=predicted,
        method="ipm",
        converged=True,
        iterations=iterations,
        kkt_error=kkt,
        solve_time_s=time.perf_counter() - t_start,
    )


def solve_block_partition(
    models: Mapping[str, DeviceModel] | Sequence[DeviceModel],
    total_units: float,
    *,
    ipm_options: IPMOptions | None = None,
) -> PartitionResult:
    """Distribute ``total_units`` so all devices finish simultaneously.

    Parameters
    ----------
    models:
        Fitted device models, either ``{device_id: model}`` or a sequence
        (ids then come from each model's ``device_id``).
    total_units:
        The work quantum Q.
    ipm_options:
        Interior-point tuning for the refinement, which runs only when
        the waterfilling split fails validation.

    Every stage failing ends in the proportional split, so this raises
    only :class:`ConfigurationError` on an empty model set or a
    non-positive quantum.
    """
    device_ids, model_list, q = _as_list(models, total_units)
    n = len(model_list)
    t_start = time.perf_counter()

    def result(units, predicted, method, iterations=0, kkt=float("nan")):
        return PartitionResult(
            device_ids=device_ids,
            units=units,
            predicted_time=predicted,
            method=method,
            converged=method != "proportional",
            iterations=iterations,
            kkt_error=kkt,
            solve_time_s=time.perf_counter() - t_start,
        )

    if n == 1:
        return result(np.array([q]), float(model_list[0].E(q)), "waterfill")

    caps = _trust_caps(model_list, q)
    try:
        units_wf, t_wf = waterfill_partition(model_list, q, caps=caps)
    except SolverError as exc:
        _log.debug("waterfilling failed: %s", exc)
    else:
        if _validate(units_wf, t_wf, model_list, q, caps, spread_tol=SPREAD_TOL):
            return result(units_wf, t_wf, "waterfill")
        try:
            units, predicted, iterations, kkt = _refine(
                model_list, q, caps, units_wf, ipm_options
            )
        except SolverError as exc:
            _log.debug("IPM refinement failed (%s)", exc)
        else:
            return result(units, predicted, "ipm", iterations, kkt)
        if _validate(
            units_wf, t_wf, model_list, q, caps, spread_tol=LOOSE_SPREAD_TOL
        ):
            return result(units_wf, t_wf, "waterfill")

    # measured-rate proportional split under caps (never fails)
    probe = max(q / n, 1e-9)
    rates = np.array([max(m.rate(probe), 1e-12) for m in model_list])
    units = q * rates / rates.sum()
    # push cap overflows onto devices with headroom
    for _ in range(n):
        excess = np.maximum(units - caps, 0.0)
        if excess.sum() <= 1e-12 * q:
            break
        units = np.minimum(units, caps)
        room = caps - units
        if room.sum() <= 0:
            break
        units = units + room * (excess.sum() / room.sum())
    predicted = float(max(m.E(u) for m, u in zip(model_list, units) if u > 0))
    return result(units, predicted, "proportional")
