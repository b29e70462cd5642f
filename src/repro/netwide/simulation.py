"""End-to-end network-wide measurement simulation (Figures 9 and 10 core).

Ties together the pieces of :mod:`repro.netwide`: a global packet stream is
split across ``m`` measurement points (round-robin, uniform-random, or
weighted — the theory's concern about slow points is reproducible with
skewed weights); points emit reports under their communication method; the
controller ingests them; and an exact OPT oracle tracks the true
network-wide window for error measurement.

The paper's Figure 9 measures the controller's on-arrival estimation error
under a fixed byte budget for the three methods; Figure 10 runs the same
pipeline under an HTTP flood and measures detection latency (see
:mod:`repro.loadbalancer.mitigation` for the mitigation loop).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Hashable, Optional, Sequence

import numpy as np

from ..analysis.metrics import RunningRMSE
from ..core.exact import ExactWindowCounter
from ..engine.facade import build_engine
from ..engine.spec import (
    AlgorithmSpec,
    SketchSpec,
    hierarchy_spec_for,
)
from ..hierarchy.domain import Hierarchy
from .budget import BudgetModel
from .controller import AggregationController, SketchController
from .measurement_point import AggregatingPoint, SamplingPoint

__all__ = ["NetwideConfig", "NetwideSystem", "run_error_experiment"]

METHODS = ("sample", "batch", "aggregate")


@dataclass(frozen=True)
class NetwideConfig:
    """Configuration of one network-wide deployment.

    ``method`` selects the communication scheme; ``batch_size=None`` asks
    the Theorem 5.5 optimizer for the best batch under the byte budget.
    ``hierarchy`` switches the controller from D-Memento to D-H-Memento.

    ``spec`` declares the controller's execution strategy (the sharding
    section of a :class:`repro.engine.SketchSpec`);
    its algorithm section serves as a template whose family, window,
    counters, tau, seed, and delta are **resolved** by
    :class:`NetwideSystem` from this config and the budget model (the
    transport sampling rate is a Theorem 5.5 output, not a spec input).
    Without a ``spec`` the controller is one unsharded sketch.
    """

    points: int = 10
    method: str = "batch"
    budget: float = 1.0
    window: int = 1_000_000
    header: int = 64
    payload: int = 4
    batch_size: Optional[int] = None
    counters: int = 512
    hierarchy: Optional[Hierarchy] = None
    delta: float = 0.001
    seed: Optional[int] = None
    #: Entry cap for aggregation reports ("all the entries of its HH
    #: algorithm"); defaults to ``counters`` when None.
    aggregate_max_entries: Optional[int] = None
    #: The controller's declarative execution spec (see class docstring).
    spec: Optional[SketchSpec] = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        if self.points <= 0:
            raise ValueError(f"points must be positive, got {self.points}")
        if self.spec is None:
            object.__setattr__(
                self,
                "spec",
                SketchSpec(
                    algorithm=AlgorithmSpec(
                        family=(
                            "h_memento"
                            if self.hierarchy is not None
                            else "memento"
                        ),
                        window=self.window,
                        counters=self.counters,
                        seed=self.seed,
                        delta=self.delta,
                    ),
                    hierarchy=hierarchy_spec_for(self.hierarchy),
                ),
            )

    @property
    def shards(self) -> int:
        """Controller ingestion shards declared by ``spec`` (1 = unsharded)."""
        sharding = self.spec.sharding
        return sharding.shards if sharding is not None else 1


class NetwideSystem:
    """A wired-up network-wide measurement deployment."""

    def __init__(self, config: NetwideConfig) -> None:
        self.config = config
        hierarchy_size = (
            config.hierarchy.num_patterns if config.hierarchy is not None else 1
        )
        self.model = BudgetModel(
            points=config.points,
            header=config.header,
            payload=config.payload,
            budget=config.budget,
            window=config.window,
            hierarchy_size=hierarchy_size,
            delta=config.delta,
        )
        self.now = 0

        if config.method == "aggregate":
            self.points = [
                AggregatingPoint(
                    point_id=i,
                    budget=config.budget,
                    header=config.header,
                    payload=config.payload,
                    hierarchy=config.hierarchy,
                    # each point "transmits all the entries of its HH
                    # algorithm" — bounded by a counter budget
                    max_entries=(
                        config.aggregate_max_entries
                        if config.aggregate_max_entries is not None
                        else config.counters
                    ),
                )
                for i in range(config.points)
            ]
            self.controller = AggregationController(
                window=config.window, hierarchy=config.hierarchy
            )
            self.batch_size = 0
            self.tau = 1.0
            # the aggregation controller retains exact deltas; there is
            # no sketch to describe declaratively
            self.resolved_spec = None
            return

        batch = 1 if config.method == "sample" else (
            config.batch_size
            if config.batch_size is not None
            else self.model.optimal_batch()
        )
        self.batch_size = batch
        self.tau = self.model.tau(batch, clamp=True)
        seed = config.seed
        self.points = [
            SamplingPoint(
                point_id=i,
                tau=self.tau,
                batch_size=batch,
                header=config.header,
                payload=config.payload,
                seed=None if seed is None else seed + i,
            )
            for i in range(config.points)
        ]
        #: the fully-resolved controller spec: the config template with
        #: family/window/counters/tau/seed/delta pinned.  Recording this
        #: next to a result row makes the controller reproducible from
        #: the spec alone (``build_engine(spec)``).
        self.resolved_spec = self._resolve_controller_spec(
            config, min(1.0, self.tau)
        )
        self.controller = SketchController(
            build_engine(self.resolved_spec, hierarchy=config.hierarchy)
        )

    @staticmethod
    def _resolve_controller_spec(
        config: NetwideConfig, tau: float
    ) -> SketchSpec:
        """Pin the algorithm section of the config's spec template.

        The family follows the deployment mode (D-Memento or
        D-H-Memento), the counter budget is split across shards so total
        controller state matches the single-sketch deployment, and
        ``tau`` is the budget model's transport sampling rate.  The
        spec's sharding section and the sampler choice pass
        through untouched.
        """
        spec = config.spec
        shards = config.shards
        counters = (
            config.counters
            if shards == 1
            else max(1, config.counters // shards)
        )
        algorithm = replace(
            spec.algorithm,
            family="h_memento" if config.hierarchy is not None else "memento",
            window=config.window,
            counters=counters,
            epsilon=None,
            tau=tau,
            seed=config.seed,
            delta=config.delta,
        )
        return replace(
            spec,
            algorithm=algorithm,
            hierarchy=hierarchy_spec_for(config.hierarchy),
        )

    # ------------------------------------------------------------------
    def offer(self, point_index: int, packet: Hashable) -> bool:
        """Deliver one packet to a specific measurement point.

        Returns True when the observation triggered a report to the
        controller (useful to hook mitigation logic on report arrivals).
        """
        self.now += 1
        report = self.points[point_index].observe(packet)
        if report is None:
            if self.config.method == "aggregate":
                self.controller.advance(self.now)
            return False
        if self.config.method == "aggregate":
            self.controller.receive(report, self.now)
        else:
            self.controller.receive(report)
        return True

    def offer_many(self, point_index: int, packets: Sequence[Hashable]) -> int:
        """Deliver a batch of packets to one measurement point.

        Returns the number of reports the batch triggered.  For the
        Sample/Batch methods this rides the point's block-sampled
        ``observe_many`` and the controller's batch ingestion; the
        aggregate method needs per-packet arrival times for report
        expiry, so it falls back to scalar delivery.
        """
        if self.config.method == "aggregate":
            triggered = 0
            offer = self.offer
            for packet in packets:
                if offer(point_index, packet):
                    triggered += 1
            return triggered
        if not isinstance(packets, (list, tuple)):
            packets = list(packets)
        self.now += len(packets)
        reports = self.points[point_index].observe_many(packets)
        self.controller.receive_many(reports)
        return len(reports)

    def query(self, key: Hashable) -> float:
        """Controller-side network-wide window frequency estimate."""
        return self.controller.query(key)

    def output(self, theta: float):
        """Controller-side heavy hitter / HHH set."""
        return self.controller.output(theta)

    def heavy_prefixes(self, theta: float):
        """Controller-side plain-frequency heavy keys (detection rule)."""
        return self.controller.heavy_prefixes(theta)

    def query_point(self, key: Hashable) -> float:
        """Midpoint estimate (bias-removed) for error metrics/detection."""
        return self.controller.query_point(key)

    def detected_subnets(self, theta: float, subnet_bits: int = 8) -> set:
        """Subnets whose midpoint window-frequency estimate exceeds θ·W.

        This is the detection rule of the Section 6.3 mitigation
        application, evaluated over the prefixes the controller currently
        tracks.  Requires a hierarchy-enabled deployment.
        """
        if self.config.hierarchy is None:
            raise ValueError("detected_subnets needs a hierarchy-enabled system")
        bar = theta * self.config.window
        out = set()
        for prefix in self.controller.candidates():
            if prefix[1] == subnet_bits and self.query_point(prefix) > bar:
                out.add(prefix)
        return out

    def close(self) -> None:
        """Release controller-side resources (idempotent).

        A sharded controller may hold resident worker processes (a spec
        with ``"executor": "persistent"``); without an explicit teardown
        every simulated point in a fig9 sweep leaks them.  The simulation owns the controller it
        built, so it owns the ``close()`` — callers that construct a
        :class:`NetwideSystem` directly should use it as a context
        manager or call :meth:`close` when done.
        """
        self.controller.close()

    def __enter__(self) -> "NetwideSystem":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def bytes_sent(self) -> int:
        """Total report bytes shipped by all points."""
        return sum(p.bytes_sent for p in self.points)

    @property
    def reports_sent(self) -> int:
        """Total reports shipped by all points."""
        return sum(p.reports_sent for p in self.points)


def _assignment_iter(
    count: int,
    points: int,
    policy: str,
    weights: Optional[Sequence[float]],
    seed: Optional[int],
):
    """Yield the measurement-point index for each of ``count`` packets."""
    if policy == "round_robin":
        for i in range(count):
            yield i % points
        return
    rng = np.random.default_rng(seed)
    if policy == "uniform":
        for idx in rng.integers(0, points, size=count):
            yield int(idx)
        return
    if policy == "weighted":
        if weights is None or len(weights) != points:
            raise ValueError("weighted policy needs one weight per point")
        probs = np.asarray(weights, dtype=float)
        probs = probs / probs.sum()
        for idx in rng.choice(points, size=count, p=probs):
            yield int(idx)
        return
    raise ValueError(f"unknown assignment policy {policy!r}")


def run_error_experiment(
    config: NetwideConfig,
    stream: Sequence[Hashable],
    query_keys: Optional[Callable[[Hashable], Sequence[Hashable]]] = None,
    stride: int = 100,
    warmup: Optional[int] = None,
    assignment: str = "round_robin",
    weights: Optional[Sequence[float]] = None,
) -> Dict[str, float]:
    """Measure the controller's on-arrival error against the OPT oracle.

    ``query_keys(packet)`` maps an arriving packet to the keys whose
    frequencies are compared (defaults to the packet key itself; the HHH
    experiments pass the packet's prefixes).  Error is sampled every
    ``stride`` packets after ``warmup`` (default: one window).

    Returns a summary with the RMSE, byte accounting, and the effective
    transport parameters (tau, batch size).
    """
    window = config.window
    if warmup is None:
        warmup = min(window, len(stream) // 4)

    if query_keys is None:
        query_keys = lambda packet: (packet,)  # noqa: E731 - tiny adapter

    oracle = ExactWindowCounter(window)
    use_hierarchy = config.hierarchy is not None
    if use_hierarchy:
        oracles = [
            ExactWindowCounter(window)
            for _ in range(config.hierarchy.num_patterns)
        ]

    acc = RunningRMSE()
    # the system owns executor workers when the
    # controller is sharded — tear them down even on a mid-run failure
    with NetwideSystem(config) as system:
        for t, (packet, point) in enumerate(
            zip(
                stream,
                _assignment_iter(
                    len(stream), config.points, assignment, weights, config.seed
                ),
            )
        ):
            system.offer(point, packet)
            keys = query_keys(packet)
            if use_hierarchy:
                for idx, key in enumerate(keys):
                    oracles[idx].update(key)
            else:
                oracle.update(packet)
            if t >= warmup and t % stride == 0:
                if use_hierarchy:
                    for idx, key in enumerate(keys):
                        acc.add(oracles[idx].query(key), system.query_point(key))
                else:
                    for key in keys:
                        acc.add(oracle.query(key), system.query_point(key))

        summary = {
            "method": config.method,
            "rmse": acc.rmse,
            "observations": float(acc.count),
            "bytes_sent": float(system.bytes_sent),
            "reports_sent": float(system.reports_sent),
            "bytes_per_packet": system.bytes_sent / max(1, len(stream)),
            "tau": system.tau,
            "batch_size": float(system.batch_size),
            "shards": float(config.shards),
        }
        if system.resolved_spec is not None:
            # the row is reproducible from this alone: build_engine(spec)
            # is the controller, byte-identical under the recorded seed
            summary["spec"] = system.resolved_spec.to_dict()
    return summary
