"""The :class:`Runtime` facade: cluster + codelet + backend in one object.

This is the library's main entry point::

    from repro import Runtime, paper_cluster
    from repro.apps import MatMul
    from repro.core import PLBHeC

    app = MatMul(n=16384)
    rt = Runtime(paper_cluster(4), app.codelet(), seed=7)
    result = rt.run(PLBHeC(), total_units=app.total_units,
                    initial_block_size=app.default_initial_block_size())
    print(result.makespan, result.trace.idle_fractions())
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError
from repro.obs.events import EventLog, current_run_id, new_run_id, push_run_id
from repro.obs.profiler import profile_phase
from repro.runtime.codelet import Codelet
from repro.runtime.real_executor import RealExecutor
from repro.runtime.scheduler_api import SchedulingPolicy
from repro.runtime.sim_executor import (
    DeviceFailure,
    Perturbation,
    SimulatedExecutor,
    TransferFault,
    TransientFailure,
)
from repro.sim.trace import ExecutionTrace

__all__ = ["Runtime", "RunResult"]

_events = EventLog("runtime")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one complete application run.

    Attributes
    ----------
    policy_name / backend:
        What ran and where (``"sim"`` or ``"real"``).
    total_units:
        Domain size processed.
    makespan:
        Completion time in seconds (virtual for sim, wall for real).
    trace:
        Full execution trace (Gantt, idleness, distributions).
    wall_time_s:
        Host seconds the run took to compute.
    results:
        Real-backend block results (``None`` on the sim backend).
    run_id:
        Correlation id structured log events of this run carry (the
        ambient :func:`repro.obs.events.current_run_id` if one was
        pushed, else a fresh id minted by :meth:`Runtime.run`).
    ledger:
        The policy's :class:`~repro.obs.ledger.DecisionLedger` (None
        for policies that keep none) — the input to ``repro run
        --explain-out`` and the calibration exports.
    """

    policy_name: str
    backend: str
    total_units: int
    makespan: float
    trace: ExecutionTrace = field(repr=False)
    wall_time_s: float
    results: list[tuple[int, int, object]] | None = field(
        default=None, repr=False
    )
    run_id: str = ""
    ledger: "object | None" = field(default=None, repr=False)

    @property
    def idle_fractions(self) -> dict[str, float]:
        """Per-device idle share of the makespan (Fig. 7 measurement)."""
        return self.trace.idle_fractions()

    @property
    def num_rebalances(self) -> int:
        """Threshold-triggered rebalances the policy executed."""
        return self.trace.num_rebalances

    @property
    def solver_overhead_s(self) -> float:
        """Total scheduler decision time charged to the run."""
        return self.trace.total_solver_overhead

    def summary(self) -> str:
        """One-paragraph human-readable run summary."""
        idle = self.idle_fractions
        mean_idle = sum(idle.values()) / len(idle) if idle else 0.0
        phases = self.trace.phase_summary()
        probe_share = phases.get("probe", {}).get("unit_share", 0.0)
        return (
            f"{self.policy_name} on {self.backend}: {self.total_units} units "
            f"in {self.makespan:.3f}s; mean idleness {mean_idle:.1%}, "
            f"probing consumed {probe_share:.1%} of the data, "
            f"{self.num_rebalances} rebalance(s), "
            f"{self.solver_overhead_s * 1e3:.0f} ms scheduler overhead"
        )


class Runtime:
    """Binds a cluster and a codelet to an execution backend.

    Parameters
    ----------
    cluster:
        Hardware topology (e.g. :func:`repro.cluster.paper_cluster`).
    codelet:
        The application's codelet.
    backend:
        ``"sim"`` (virtual time, default) or ``"real"`` (host threads).
    noise_sigma / seed / perturbations / failures / transients /
    transfer_faults:
        Simulation-backend knobs (ignored by the real backend).  Fault
        device ids are validated against the cluster up front; an
        unknown id raises :class:`ConfigurationError` naming it.
    speed_factors:
        Real-backend heterogeneity emulation (ignored by sim).
    """

    def __init__(
        self,
        cluster: Cluster,
        codelet: Codelet,
        *,
        backend: str = "sim",
        noise_sigma: float = 0.005,
        seed: int = 0,
        perturbations: tuple[Perturbation, ...] = (),
        failures: tuple[DeviceFailure, ...] = (),
        transients: tuple[TransientFailure, ...] = (),
        transfer_faults: tuple[TransferFault, ...] = (),
        speed_factors: dict[str, float] | None = None,
    ) -> None:
        if backend not in ("sim", "real"):
            raise ConfigurationError(
                f"backend must be 'sim' or 'real', got {backend!r}"
            )
        self.cluster = cluster
        self.codelet = codelet
        self.backend = backend
        if backend == "sim":
            self._executor = SimulatedExecutor(
                cluster,
                codelet.kernel,
                noise_sigma=noise_sigma,
                seed=seed,
                perturbations=perturbations,
                failures=failures,
                transients=transients,
                transfer_faults=transfer_faults,
            )
        else:
            self._executor = RealExecutor(
                cluster, codelet, speed_factors=speed_factors
            )

    def run(
        self,
        policy: SchedulingPolicy,
        total_units: int,
        initial_block_size: int | None = None,
        *,
        sampler=None,
    ) -> RunResult:
        """Process ``total_units`` under ``policy`` and return the result.

        ``initial_block_size`` defaults to ~1 % of the domain (clamped to
        at least one unit); experiments normally pass the application's
        own heuristic instead.

        ``sampler`` attaches a single-use
        :class:`~repro.obs.timeseries.ClusterSampler` that records
        virtual-time telemetry (per-device utilization, backlog,
        fairness) while the run executes.  Simulation-only: the real
        backend has no virtual clock to sample and rejects it.
        """
        if initial_block_size is None:
            initial_block_size = max(1, total_units // 100)
        if sampler is not None and self.backend != "sim":
            raise ConfigurationError(
                "telemetry sampling requires the simulated backend "
                f"(got backend={self.backend!r})"
            )
        t0 = time.perf_counter()
        results = None
        run_id = current_run_id()
        scope = (
            contextlib.nullcontext(run_id)
            if run_id
            else push_run_id(new_run_id())
        )
        with scope as run_id:
            with _events.span(
                "runtime.run",
                policy=policy.name,
                backend=self.backend,
                total_units=int(total_units),
            ) as span:
                # Host-time attribution for `run --profile`: the whole
                # executor loop runs as "execute"; the policy's fit and
                # solve scopes and the executor's probe transitions
                # re-attribute their slices from inside.
                with profile_phase("execute"):
                    if self.backend == "sim":
                        trace, makespan = self._executor.run(
                            policy, total_units, initial_block_size,
                            sampler=sampler,
                        )
                    else:
                        trace, makespan, results = self._executor.run(
                            policy, total_units, initial_block_size
                        )
                span["makespan"] = float(makespan)
        return RunResult(
            policy_name=policy.name,
            backend=self.backend,
            total_units=int(total_units),
            makespan=float(makespan),
            trace=trace,
            wall_time_s=time.perf_counter() - t0,
            results=results,
            run_id=run_id or "",
            ledger=getattr(policy, "ledger", None),
        )
