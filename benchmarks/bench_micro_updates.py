"""Micro-benchmarks of the core update paths: scalar loop vs batch engine.

Two entry points share one workload:

* ``pytest benchmarks/bench_micro_updates.py`` — pytest-benchmark tests of
  each sketch's scalar and batch ingestion, for interactive comparison;
* ``python benchmarks/bench_micro_updates.py`` — the standalone harness
  (``repro.bench``) that times every (sketch, path) pair and persists
  machine-readable results to ``BENCH_micro_updates.json`` at the repo
  root, so every PR leaves a perf trail.  ``--smoke`` shrinks the
  workload for CI and skips the speedup gate.

The standalone run enforces the batch engine's contract: ``update_many``
must reach at least 2× the scalar ops/sec on ``Memento(tau=0.1)`` and on
``SpaceSaving`` (exit status 1 otherwise).  In a full run the
``memento_tau0.1`` pair is timed on a longer stream (``GATED_PACKETS``)
so that each timed batch pass lasts over 100 ms and one scheduler
hiccup cannot swing the ratio.

The ``memento_sampled/{dense,positioned,gap}`` rows time Memento's one
sampled kernel on the three plan shapes it applies — every packet a
Full update (``full_update_many``), controller-shaped positioned plans
(``ingest_plan(..., sampled=True)``: 20 samples at the head of each
144-packet report span) and pure gaps (``ingest_gap``) — at the
controller's small-block geometry (8-packet blocks, quantum 1).  They
are not gated.

The ``hhh_output`` row times H-Memento's ``output(theta)`` on a state
where the sampling correction exceeds ``theta * W`` (every candidate is
selected) against the reference scan of Algorithms 2-3 that recomputes
``G(p|P)`` from the whole selected set for each candidate.  Both must
return the same set, and the standalone run requires the scan to be at
least 10× faster than the reference.

The ``memento_query/heavy_hitters`` and ``hhh_query/output`` rows time
the threshold queries a network-wide controller polls every tick, at
its geometry (W = 100k, k = 12,500, 8-packet blocks, overflow quantum
1): ``Memento.heavy_hitters(0.005)`` and the 1-D H-Memento
``output(0.15)``, each as shipped (``threshold``: only rows that can
clear the bar are visited) and as a full scan of every candidate
(``full_scan``).  Both paths must give equal answers, and the
standalone run requires the shipped path to be at least 2× faster.

The ``hmemento_controller/receive_many`` row times D-H-Memento's
controller: ``SketchController.receive_many`` into H-Memento at the
``hhh-netwide`` geometry (W = 100k, k = 12,500, source hierarchy), fed
the reports of ten Batch sampling points whose ``tau`` and batch size
come from the 10-point byte-budget model (1 byte per packet), one
``receive_many`` call per point per 8,000-packet step.  ``ops`` is the
samples one pass applies, so its ns/op is ns/sample; it also records
the garbage collections one pass triggers, per generation.  The
``hmemento_controller_2d/receive_many`` row is the same controller over
the source/destination hierarchy (H = 25), fed address pairs.  Not gated.

The ``memento_k/<k>/tau<tau>`` rows time ``Memento.update_many`` at
W = 100k for k in {512, 2,048, 12,500} and tau in {1, 1/16}, one row per
pair: the paper claims a per-packet cost independent of ``k``.  At
k = 12,500 and tau = 1/16 the overflow quantum is 1, where Memento skips
its in-frame Space Saving.  Not gated.

The ``memento_state/{build,dump,load}/<geometry>`` rows time building an
empty Memento, ``pickle.dumps`` of a filled one and ``pickle.loads`` of
that blob — what a service checkpoint and a resident shard's
``collect()`` pay — at the controller geometry (W = 100k, k = 12,500,
tau = 1/8) and at the flat workloads' (W = 1M, k = 1024, tau = 1/16).
Each checks that the loaded sketch re-pickles to the same bytes and
answers the same estimates.  They are not gated.

``--baseline FILE`` copies, for every row also in ``FILE`` (a result
file of an earlier commit), that file's seconds per op next to this
run's into ``extra.baseline``, so one trail holds both sides of a
change.
"""

from __future__ import annotations

import argparse
import gc
import pickle
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

try:
    import repro  # noqa: F401 - probe for an installed package
except ModuleNotFoundError:  # uninstalled checkout: fall back to src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import (
    MST,
    RHHH,
    SRC_DST_HIERARCHY,
    ExactWindowCounter,
    HMemento,
    Memento,
    SRC_HIERARCHY,
    SpaceSaving,
    generate_trace,
)
from repro.bench import BenchResult, bench, load_results, repo_root, write_results
from repro.core.kernel import make_plan
from repro.engine import SketchSpec
from repro.hierarchy.hhh_output import calc_pred_1d, compute_hhh, group_by_depth
from repro.netwide.budget import BudgetModel
from repro.netwide.controller import SketchController
from repro.netwide.measurement_point import SamplingPoint
from repro.traffic.synth import BACKBONE

WINDOW = 8192
N = 20_000
CHUNK = 4096

#: (case name, sketch factory); every case is measured scalar and batched.
CASES: List[Tuple[str, Callable[[], object]]] = [
    ("space_saving", lambda: SpaceSaving(512)),
    ("exact_window", lambda: ExactWindowCounter(WINDOW)),
    ("memento_tau1", lambda: Memento(window=WINDOW, counters=512, tau=1.0, seed=1)),
    (
        "memento_tau0.1",
        lambda: Memento(window=WINDOW, counters=512, tau=0.1, seed=1),
    ),
    (
        "memento_tau2^-10",
        lambda: Memento(window=WINDOW, counters=512, tau=2**-10, seed=1),
    ),
    (
        "hmemento_tau0.25",
        lambda: HMemento(
            window=WINDOW, hierarchy=SRC_HIERARCHY, counters=512, tau=0.25, seed=1
        ),
    ),
    ("mst", lambda: MST(SRC_HIERARCHY, counters=128)),
    ("rhhh", lambda: RHHH(SRC_HIERARCHY, counters=128, seed=1)),
]

#: cases whose batch path must show >= MIN_SPEEDUP in the standalone run
GATED_CASES = ("memento_tau0.1", "space_saving")
MIN_SPEEDUP = 2.0
#: a full run times this case on GATED_PACKETS packets, so that each
#: timed batch pass lasts over 100 ms
LONG_PASS_CASE = "memento_tau0.1"
GATED_PACKETS = 1_000_000

#: declarative spec of each case, recorded in every persisted row so a
#: row reproduces from the JSON alone (registry-validated at import).
CASE_SPECS: Dict[str, Dict[str, object]] = {
    name: SketchSpec.from_dict(payload).to_dict()
    for name, payload in (
        ("space_saving", {"algorithm": {"family": "space_saving", "counters": 512}}),
        ("exact_window", {"algorithm": {"family": "exact", "window": WINDOW}}),
        (
            "memento_tau1",
            {
                "algorithm": {
                    "family": "memento",
                    "window": WINDOW,
                    "counters": 512,
                    "tau": 1.0,
                    "seed": 1,
                }
            },
        ),
        (
            "memento_tau0.1",
            {
                "algorithm": {
                    "family": "memento",
                    "window": WINDOW,
                    "counters": 512,
                    "tau": 0.1,
                    "seed": 1,
                }
            },
        ),
        (
            "memento_tau2^-10",
            {
                "algorithm": {
                    "family": "memento",
                    "window": WINDOW,
                    "counters": 512,
                    "tau": 2**-10,
                    "seed": 1,
                }
            },
        ),
        (
            "hmemento_tau0.25",
            {
                "algorithm": {
                    "family": "h_memento",
                    "window": WINDOW,
                    "counters": 512,
                    "tau": 0.25,
                    "seed": 1,
                },
                "hierarchy": {"kind": "src"},
            },
        ),
        (
            "mst",
            {
                "algorithm": {"family": "mst", "counters": 128},
                "hierarchy": {"kind": "src"},
            },
        ),
        (
            "rhhh",
            {
                "algorithm": {"family": "rhhh", "counters": 128, "seed": 1},
                "hierarchy": {"kind": "src"},
            },
        ),
    )
}


#: the memento_sampled rows: 8-packet blocks and an overflow quantum of
#: 1, as in the netwide controller's H-Memento, fed 144-packet reports
#: carrying 20 samples each (the positioned shape)
SAMPLED_COUNTERS = 1024
SAMPLED_TAU = 0.125
REPORT_COVERED = 144
REPORT_SAMPLES = 20
SAMPLED_SPEC = SketchSpec.from_dict(
    {
        "algorithm": {
            "family": "memento",
            "window": WINDOW,
            "counters": SAMPLED_COUNTERS,
            "tau": SAMPLED_TAU,
            "seed": 1,
        }
    }
).to_dict()

#: the hhh_output row: H-Memento with W/8 counters at tau = 1/8, whose
#: correction 2·Z·sqrt(V·W) (V = H/tau = 40) exceeds HHH_THETA·W
HHH_WINDOW = 100_000
HHH_TAU = 0.125
HHH_THETA = 0.1
MIN_SCAN_SPEEDUP = 10.0

#: the threshold-query rows share the hhh_output row's geometry (W/8
#: counters at tau = 1/8: 8-packet blocks, overflow quantum 1); the
#: output bar 0.15·W is above the correction, so few rows can pass
QUERY_THETA_HH = 0.005
QUERY_THETA_HHH = 0.15
MIN_QUERY_SPEEDUP = 2.0


#: the hmemento_controller row: ten sampling points, each handed every
#: tenth packet of an 8,000-packet step (the hhh-netwide deployment)
CONTROLLER_POINTS = 10
CONTROLLER_STEP = 8000

#: the memento_k rows: Memento at W = 100k across counter budgets, on
#: K_PACKETS packets (eight windows) per pass
K_WINDOW = 100_000
K_COUNTERS = (512, 2048, 12_500)
K_TAUS = (("1", 1.0), ("1_16", 1 / 16))
K_PACKETS = 800_000

#: the memento_state rows: (label, window, counters, tau, packets fed
#: before the dump); builds are timed BUILDS to a pass
STATE_GEOMETRIES = (
    ("w100k_k12500", 100_000, 12_500, 1 / 8, 200_000),
    ("w1m_k1024", 1_000_000, 1024, 1 / 16, 1_500_000),
)
BUILDS = 50


def make_stream(n: int = N) -> list:
    return generate_trace(BACKBONE, n, seed=99).packets_1d()


def drive_scalar(algorithm, stream):
    update = algorithm.update
    for item in stream:
        update(item)
    return algorithm


def drive_batch(algorithm, stream, chunk: int = CHUNK):
    update_many = algorithm.update_many
    for start in range(0, len(stream), chunk):
        update_many(stream[start : start + chunk])
    return algorithm


def sampled_memento() -> Memento:
    return Memento(
        window=WINDOW, counters=SAMPLED_COUNTERS, tau=SAMPLED_TAU, seed=1
    )


def run_sampled_shapes(
    stream: list, warmup: int, repeats: int
) -> List[BenchResult]:
    """Time the sampled kernel on dense, positioned and pure-gap plans.

    ``ops`` is the number of stream packets each shape covers, so the
    three rows share units.
    """
    n = len(stream)
    head = np.arange(n) % REPORT_COVERED < REPORT_SAMPLES
    plans = [
        make_plan(stream[start : start + CHUNK], head[start : start + CHUNK])
        for start in range(0, n, CHUNK)
    ]

    def dense():
        sketch = sampled_memento()
        for start in range(0, n, CHUNK):
            sketch.full_update_many(stream[start : start + CHUNK])

    def positioned():
        sketch = sampled_memento()
        for plan in plans:
            sketch.ingest_plan(plan, sampled=True)

    def gap():
        sketch = sampled_memento()
        for start in range(0, n, CHUNK):
            sketch.ingest_gap(min(CHUNK, n - start))

    return [
        bench(
            fn,
            name=f"memento_sampled/{shape}",
            ops=n,
            warmup=warmup,
            repeats=repeats,
            metadata={
                "path": shape,
                "case": "memento_sampled",
                "chunk": CHUNK,
                "spec": SAMPLED_SPEC,
                "transport": None,
            },
        )
        for shape, fn in (("dense", dense), ("positioned", positioned), ("gap", gap))
    ]


def reference_output(sketch: HMemento, theta: float) -> set:
    """Algorithm 2's output scan with ``G(p|P)`` recomputed per candidate."""
    hierarchy = sketch.hierarchy
    correction = sketch.sampling_correction()
    levels = group_by_depth(hierarchy, sketch.candidates())
    selected: set = set()
    for depth in hierarchy.levels():
        for prefix in levels.get(depth, ()):
            conditioned = sketch.query(prefix) + calc_pred_1d(
                hierarchy, prefix, selected, sketch.query_lower, sketch.query
            )
            conditioned += correction
            if conditioned >= theta * sketch.window:
                selected.add(prefix)
    return selected


def controller_spec(family: str, window: int) -> Dict[str, object]:
    """The spec of a ``family`` sketch at the controller's geometry."""
    payload: Dict[str, object] = {
        "algorithm": {
            "family": family,
            "window": window,
            "counters": window // 8,
            "tau": HHH_TAU,
            "seed": 1,
        }
    }
    if family == "h_memento":
        payload["hierarchy"] = {"kind": "src"}
    return SketchSpec.from_dict(payload).to_dict()


def hhh_sketch(window: int) -> HMemento:
    """H-Memento at the controller's geometry, fed two windows."""
    sketch = HMemento(
        window=window,
        hierarchy=SRC_HIERARCHY,
        counters=window // 8,
        tau=HHH_TAU,
        seed=1,
    )
    sketch.update_many(make_stream(2 * window))
    return sketch


def run_hhh_output(
    sketch: HMemento, warmup: int, repeats: int
) -> Tuple[BenchResult, BenchResult]:
    """Time ``output(HHH_THETA)`` against :func:`reference_output`.

    ``ops`` is the number of candidates one call scans.  The reference
    is quadratic in that number, so it runs once, untimed warmup aside.
    """
    candidates = len(list(sketch.candidates()))
    selected = sketch.output(HHH_THETA)
    if selected != reference_output(sketch, HHH_THETA):
        raise AssertionError("hhh_output: scan and reference select different sets")
    spec = controller_spec("h_memento", sketch.window)
    scan = bench(
        lambda: sketch.output(HHH_THETA),
        name="hhh_output/scan",
        ops=candidates,
        warmup=warmup,
        repeats=repeats,
        metadata={
            "path": "scan",
            "case": "hhh_output",
            "theta": HHH_THETA,
            "selected": len(selected),
            "spec": spec,
            "transport": None,
        },
    )
    reference = bench(
        lambda: reference_output(sketch, HHH_THETA),
        name="hhh_output/reference",
        ops=candidates,
        warmup=0,
        repeats=1,
        metadata={
            "path": "reference",
            "case": "hhh_output",
            "theta": HHH_THETA,
            "selected": len(selected),
            "spec": spec,
            "transport": None,
        },
    )
    return scan, reference


def full_scan_heavy(sketch: Memento, theta: float) -> dict:
    """``heavy_hitters`` as a filter over every candidate's estimate."""
    bar = theta * sketch.window
    return {key: est for key, est in sketch.estimates().items() if est > bar}


def full_scan_output(sketch: HMemento, theta: float) -> set:
    """``output`` as ``compute_hhh`` over every candidate (the shared
    Memento's estimates, keyed by prefix code, decoded to prefixes)."""
    prefix_of = sketch.hierarchy.prefix_of
    estimates = {
        prefix_of(code): est for code, est in sketch._memento.estimates().items()
    }
    return compute_hhh(
        sketch.hierarchy,
        list(estimates),
        upper=estimates.__getitem__,
        lower=sketch.query_lower,
        threshold_count=theta * sketch.window,
        correction=sketch.sampling_correction(),
    )


def run_threshold_queries(
    sketch: HMemento, warmup: int, repeats: int
) -> Tuple[List[BenchResult], Dict[str, float]]:
    """Time the shipped threshold queries against their full scans.

    ``memento_query`` runs on a bare Memento of the same geometry as
    ``sketch``; ``hhh_query`` on ``sketch`` itself.  ``ops`` is the
    number of candidates a full scan visits, so each pair's ops/s ratio
    is its speedup.
    """
    window = sketch.window
    memento = Memento(window=window, counters=window // 8, tau=HHH_TAU, seed=1)
    memento.update_many(make_stream(2 * window))
    cases = (
        (
            "memento_query",
            "heavy_hitters",
            QUERY_THETA_HH,
            controller_spec("memento", window),
            len(list(memento.candidates())),
            lambda: memento.heavy_hitters(QUERY_THETA_HH),
            lambda: full_scan_heavy(memento, QUERY_THETA_HH),
        ),
        (
            "hhh_query",
            "output",
            QUERY_THETA_HHH,
            controller_spec("h_memento", window),
            len(list(sketch.candidates())),
            lambda: sketch.output(QUERY_THETA_HHH),
            lambda: full_scan_output(sketch, QUERY_THETA_HHH),
        ),
    )
    results: List[BenchResult] = []
    speedups: Dict[str, float] = {}
    for case, query, theta, spec, candidates, shipped, full_scan in cases:
        answer, expected = shipped(), full_scan()
        same = answer == expected
        if isinstance(answer, dict):  # heavy_hitters: the order must match too
            same = same and list(answer) == list(expected)
        if not same:
            raise AssertionError(f"{case}: threshold and full-scan answers differ")
        timed = {}
        for path, fn in (("threshold", shipped), ("full_scan", full_scan)):
            timed[path] = bench(
                fn,
                name=f"{case}/{query}/{path}",
                ops=candidates,
                warmup=warmup,
                repeats=repeats,
                metadata={
                    "path": path,
                    "case": case,
                    "theta": theta,
                    "answers": len(answer),
                    "spec": spec,
                    "transport": None,
                },
            )
        results.extend(timed.values())
        speedups[case] = (
            timed["threshold"].ops_per_sec / timed["full_scan"].ops_per_sec
        )
    return results, speedups


def gc_collections() -> List[int]:
    """Collections run so far, per garbage-collector generation."""
    return [gen["collections"] for gen in gc.get_stats()]


def run_k_rows(stream: list, warmup: int, repeats: int) -> List[BenchResult]:
    """Time ``Memento.update_many`` over ``stream`` per (k, tau) pair."""
    results: List[BenchResult] = []
    for counters in K_COUNTERS:
        for label, tau in K_TAUS:

            def feed():
                drive_batch(
                    Memento(K_WINDOW, counters=counters, tau=tau, seed=1), stream
                )

            spec = SketchSpec.from_dict(
                {
                    "algorithm": {
                        "family": "memento",
                        "window": K_WINDOW,
                        "counters": counters,
                        "tau": tau,
                        "seed": 1,
                    }
                }
            ).to_dict()
            quantum = Memento(K_WINDOW, counters=counters, tau=tau).sample_block
            results.append(
                bench(
                    feed,
                    name=f"memento_k/{counters}/tau{label}",
                    ops=len(stream),
                    warmup=warmup,
                    repeats=repeats,
                    metadata={
                        "path": "batch",
                        "case": "memento_k",
                        "chunk": CHUNK,
                        "quantum": quantum,
                        "spec": spec,
                        "transport": None,
                    },
                )
            )
    return results


def run_controller_row(
    stream: list,
    window: int,
    warmup: int,
    repeats: int,
    hierarchy=SRC_HIERARCHY,
) -> BenchResult:
    """Time ``receive_many`` of a D-H-Memento controller over ``stream``.

    The points' reports are produced once, untimed; each pass applies
    them all to a fresh controller built before the pass.
    """
    model = BudgetModel(
        points=CONTROLLER_POINTS, header=64, payload=4, budget=1.0,
        window=window, hierarchy_size=hierarchy.num_patterns, delta=0.001,
    )
    batch = model.optimal_batch()
    tau = model.tau(batch)
    points = [
        SamplingPoint(i, tau, batch_size=batch, seed=1 + i)
        for i in range(CONTROLLER_POINTS)
    ]
    calls = []  # the reports of one observe_many call each
    for start in range(0, len(stream), CONTROLLER_STEP):
        step = stream[start : start + CONTROLLER_STEP]
        for j, point in enumerate(points):
            reports = point.observe_many(step[j::CONTROLLER_POINTS])
            if reports:
                calls.append(reports)
    samples = sum(len(report.samples) for reports in calls for report in reports)
    controllers = iter([
        SketchController(
            HMemento(window, hierarchy, counters=window // 8, tau=tau, seed=1)
        )
        for _ in range(warmup + repeats)
    ])
    collections: List[List[int]] = []

    def one_pass():
        receive_many = next(controllers).receive_many
        before = gc_collections()
        for reports in calls:
            receive_many(reports)
        collections.append([b - a for a, b in zip(before, gc_collections())])

    two_d = hierarchy.dimensions == 2
    case = "hmemento_controller_2d" if two_d else "hmemento_controller"
    row = bench(
        one_pass,
        name=f"{case}/receive_many",
        ops=samples,
        warmup=warmup,
        repeats=repeats,
        metadata={
            "path": "receive_many",
            "case": case,
            "packets": len(stream),
            "points": CONTROLLER_POINTS,
            "report_batch": batch,
            "reports": sum(map(len, calls)),
            "spec": SketchSpec.from_dict(
                {
                    "algorithm": {
                        "family": "h_memento",
                        "window": window,
                        "counters": window // 8,
                        "tau": tau,
                        "seed": 1,
                    },
                    "hierarchy": {"kind": "src_dst" if two_d else "src"},
                }
            ).to_dict(),
            "transport": None,
        },
    )
    row.metadata["ns_per_sample"] = row.seconds / samples * 1e9
    # the timed passes' collections, per generation (gen 0, 1, 2)
    row.metadata["gc_collections_per_pass"] = collections[warmup:]
    return row


def run_state_rows(
    warmup: int, repeats: int, packets: Optional[int] = None
) -> List[BenchResult]:
    """Time building, pickling and unpickling a Memento per geometry.

    ``packets`` overrides each geometry's fill (the smoke run's short
    feed).  ``ops`` is sketches built (``BUILDS`` per pass), dumped or
    loaded.
    """
    results: List[BenchResult] = []
    for label, window, counters, tau, fill in STATE_GEOMETRIES:
        spec = SketchSpec.from_dict(
            {
                "algorithm": {
                    "family": "memento",
                    "window": window,
                    "counters": counters,
                    "tau": tau,
                    "seed": 1,
                }
            }
        ).to_dict()

        def build():
            for _ in range(BUILDS):
                Memento(window=window, counters=counters, tau=tau, seed=1)

        sketch = Memento(window=window, counters=counters, tau=tau, seed=1)
        sketch.update_many(make_stream(packets or fill))
        blob = pickle.dumps(sketch, pickle.HIGHEST_PROTOCOL)
        loaded = pickle.loads(blob)
        if pickle.dumps(loaded, pickle.HIGHEST_PROTOCOL) != blob or list(
            loaded.estimates().items()
        ) != list(sketch.estimates().items()):
            raise AssertionError(f"memento_state/{label}: loaded state differs")
        meta = {
            "case": "memento_state",
            "geometry": label,
            "packets": packets or fill,
            "pickle_bytes": len(blob),
            "overflow_records": sum(sketch._offsets.values()),
            "spec": spec,
            "transport": None,
        }
        for op, fn, ops in (
            ("build", build, BUILDS),
            ("dump", lambda: pickle.dumps(sketch, pickle.HIGHEST_PROTOCOL), 1),
            ("load", lambda: pickle.loads(blob), 1),
        ):
            results.append(
                bench(
                    fn,
                    name=f"memento_state/{op}/{label}",
                    ops=ops,
                    warmup=warmup,
                    repeats=repeats,
                    metadata={"path": op, **meta},
                )
            )
    return results


# ----------------------------------------------------------------------
# standalone harness run (BENCH_micro_updates.json)
# ----------------------------------------------------------------------
def run_harness(
    n: int = N,
    warmup: int = 1,
    repeats: int = 3,
    long_n: Optional[int] = None,
) -> Tuple[List[BenchResult], Dict[str, float]]:
    """Time every (case, path) pair; return results and per-case speedups.

    ``long_n`` (if given) is the stream length of ``LONG_PASS_CASE``;
    every other case runs on ``n`` packets.
    """
    stream = make_stream(n)
    long_stream = make_stream(long_n) if long_n else stream
    results: List[BenchResult] = []
    speedups: Dict[str, float] = {}
    for name, factory in CASES:
        case_stream = long_stream if name == LONG_PASS_CASE else stream
        scalar = bench(
            lambda: drive_scalar(factory(), case_stream),
            name=f"{name}/scalar",
            ops=len(case_stream),
            warmup=warmup,
            repeats=repeats,
            metadata={
                "path": "scalar",
                "case": name,
                "spec": CASE_SPECS[name],
                "transport": None,
            },
        )
        batch = bench(
            lambda: drive_batch(factory(), case_stream),
            name=f"{name}/batch",
            ops=len(case_stream),
            warmup=warmup,
            repeats=repeats,
            metadata={
                "path": "batch",
                "case": name,
                "chunk": CHUNK,
                "spec": CASE_SPECS[name],
                "transport": None,
            },
        )
        results.extend((scalar, batch))
        speedups[name] = batch.ops_per_sec / scalar.ops_per_sec
    results.extend(run_sampled_shapes(stream, warmup, repeats))
    return results, speedups


def baseline_figures(
    results: Sequence[BenchResult], path: str
) -> Dict[str, Dict[str, float]]:
    """Seconds per op of every row of ``results`` also in the result
    file ``path``, there and here."""
    theirs = {
        row["name"]: row["seconds"] / row["ops"]
        for row in load_results(path)["results"]
    }
    figures = {}
    for row in results:
        if row.name in theirs:
            ours = row.seconds / row.ops
            figures[row.name] = {
                "baseline_s_per_op": theirs[row.name],
                "s_per_op": ours,
                "speedup": theirs[row.name] / ours,
            }
    return figures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload for CI: fewer packets, no speedup gate",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_micro_updates.json at repo root)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="a result file of an earlier commit to record next to this run",
    )
    args = parser.parse_args(argv)
    n = 4_000 if args.smoke else N
    # best-of-5 keeps the gate stable against scheduler noise
    repeats = 1 if args.smoke else 5
    results, speedups = run_harness(
        n=n,
        warmup=0 if args.smoke else 1,
        repeats=repeats,
        long_n=None if args.smoke else GATED_PACKETS,
    )
    hhh_window = HHH_WINDOW // 10 if args.smoke else HHH_WINDOW
    sketch = hhh_sketch(hhh_window)
    scan, reference = run_hhh_output(
        sketch, warmup=0 if args.smoke else 1, repeats=repeats
    )
    results.extend((scan, reference))
    speedups["hhh_output"] = scan.ops_per_sec / reference.ops_per_sec
    query_rows, query_speedups = run_threshold_queries(
        sketch, warmup=0 if args.smoke else 1, repeats=repeats
    )
    results.extend(query_rows)
    speedups.update(query_speedups)
    controller = run_controller_row(
        make_stream(4 * hhh_window),
        hhh_window,
        warmup=0 if args.smoke else 1,
        repeats=repeats,
    )
    results.append(controller)
    pairs = make_stream(4 * hhh_window)
    results.append(
        run_controller_row(
            list(zip(pairs, reversed(pairs))),
            hhh_window,
            warmup=0 if args.smoke else 1,
            repeats=repeats,
            hierarchy=SRC_DST_HIERARCHY,
        )
    )
    results.extend(
        run_k_rows(
            make_stream(n if args.smoke else K_PACKETS),
            warmup=0 if args.smoke else 1,
            repeats=1 if args.smoke else 3,
        )
    )
    results.extend(
        run_state_rows(
            warmup=0 if args.smoke else 1,
            repeats=repeats,
            packets=n if args.smoke else None,
        )
    )

    out = args.out or (repo_root() / "BENCH_micro_updates.json")
    extra: Dict[str, object] = {
        "workload": {
            "packets": n,
            "window": WINDOW,
            "chunk": CHUNK,
            "hhh_window": hhh_window,
            "gated_packets": n if args.smoke else GATED_PACKETS,
            "k_packets": n if args.smoke else K_PACKETS,
        },
        "speedups": speedups,
        "smoke": args.smoke,
    }
    if args.baseline:
        extra["baseline"] = {
            "file": Path(args.baseline).name,
            "rows": baseline_figures(results, args.baseline),
        }
    write_results(out, results, extra=extra)

    width = max(len(name) for name, _ in CASES)
    print(f"{'case'.ljust(width)}  {'scalar ops/s':>14}  {'batch ops/s':>14}  speedup")
    by_name = {r.name: r for r in results}
    for name, _ in CASES:
        scalar = by_name[f"{name}/scalar"]
        batch = by_name[f"{name}/batch"]
        print(
            f"{name.ljust(width)}  {scalar.ops_per_sec:>14,.0f}  "
            f"{batch.ops_per_sec:>14,.0f}  {speedups[name]:>6.2f}x"
        )
    for shape in ("dense", "positioned", "gap"):
        row = by_name[f"memento_sampled/{shape}"]
        print(
            f"{('sampled/' + shape).ljust(width)}  {'':>14}  "
            f"{row.ops_per_sec:>14,.0f}  (kernel, packets/s)"
        )
    print(
        f"{'hhh_output'.ljust(width)}  {reference.ops_per_sec:>14,.0f}  "
        f"{scan.ops_per_sec:>14,.0f}  {speedups['hhh_output']:>6.2f}x"
        f"  (reference vs scan, candidates/s)"
    )
    for case, query in (("memento_query", "heavy_hitters"), ("hhh_query", "output")):
        full = by_name[f"{case}/{query}/full_scan"]
        shipped = by_name[f"{case}/{query}/threshold"]
        print(
            f"{case.ljust(width)}  {full.ops_per_sec:>14,.0f}  "
            f"{shipped.ops_per_sec:>14,.0f}  {speedups[case]:>6.2f}x"
            f"  (full scan vs threshold, candidates/s)"
        )
    for case in ("hmemento_controller", "hmemento_controller_2d"):
        row = by_name[f"{case}/receive_many"]
        print(
            f"{case.ljust(width)}  {row.metadata['ns_per_sample']:>14,.0f}  "
            f"{'':>14}  (receive_many, ns/sample; gc collections per pass "
            f"{row.metadata['gc_collections_per_pass']})"
        )
    for counters in K_COUNTERS:
        rows = [by_name[f"memento_k/{counters}/tau{label}"] for label, _ in K_TAUS]
        figures = "  ".join(
            f"tau{label} {row.seconds / row.ops * 1e9:.0f}"
            for (label, _), row in zip(K_TAUS, rows)
        )
        print(f"{('k/' + str(counters)).ljust(width)}  {figures}  (update_many, ns/pkt)")
    for label, *_ in STATE_GEOMETRIES:
        rows = [by_name[f"memento_state/{op}/{label}"] for op in ("build", "dump", "load")]
        times = "  ".join(
            f"{row.metadata['path']} {row.seconds / row.ops * 1e3:.3f} ms" for row in rows
        )
        print(f"{('state/' + label).ljust(width)}  {times}  (per sketch)")
    print(f"results -> {out}")

    if not args.smoke:
        failures = [name for name in GATED_CASES if speedups[name] < MIN_SPEEDUP]
        if failures:
            print(
                f"FAIL: batch path below {MIN_SPEEDUP}x on: {', '.join(failures)}",
                file=sys.stderr,
            )
            return 1
        if speedups["hhh_output"] < MIN_SCAN_SPEEDUP:
            print(
                f"FAIL: hhh_output scan below {MIN_SCAN_SPEEDUP}x the reference",
                file=sys.stderr,
            )
            return 1
        slow = [
            case
            for case in ("memento_query", "hhh_query")
            if speedups[case] < MIN_QUERY_SPEEDUP
        ]
        if slow:
            print(
                f"FAIL: threshold query below {MIN_QUERY_SPEEDUP}x its full "
                f"scan on: {', '.join(slow)}",
                file=sys.stderr,
            )
            return 1
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stream():
    return make_stream()


def test_space_saving_update(benchmark, stream):
    result = benchmark(lambda: drive_scalar(SpaceSaving(512), stream))
    assert result.processed == N


def test_space_saving_update_many(benchmark, stream):
    result = benchmark(lambda: drive_batch(SpaceSaving(512), stream))
    assert result.processed == N


def test_exact_window_update(benchmark, stream):
    result = benchmark(lambda: drive_scalar(ExactWindowCounter(WINDOW), stream))
    assert result.size == WINDOW


def test_exact_window_update_many(benchmark, stream):
    result = benchmark(lambda: drive_batch(ExactWindowCounter(WINDOW), stream))
    assert result.size == WINDOW


@pytest.mark.parametrize("tau", [1.0, 2**-4, 2**-10])
def test_memento_update(benchmark, stream, tau):
    result = benchmark(
        lambda: drive_scalar(
            Memento(window=WINDOW, counters=512, tau=tau, seed=1), stream
        )
    )
    assert result.updates == N


@pytest.mark.parametrize("tau", [1.0, 2**-4, 2**-10])
def test_memento_update_many(benchmark, stream, tau):
    result = benchmark(
        lambda: drive_batch(
            Memento(window=WINDOW, counters=512, tau=tau, seed=1), stream
        )
    )
    assert result.updates == N


def test_hmemento_update(benchmark, stream):
    result = benchmark(
        lambda: drive_scalar(
            HMemento(
                window=WINDOW,
                hierarchy=SRC_HIERARCHY,
                counters=512,
                tau=0.25,
                seed=1,
            ),
            stream,
        )
    )
    assert result.updates == N


def test_hmemento_update_many(benchmark, stream):
    result = benchmark(
        lambda: drive_batch(
            HMemento(
                window=WINDOW,
                hierarchy=SRC_HIERARCHY,
                counters=512,
                tau=0.25,
                seed=1,
            ),
            stream,
        )
    )
    assert result.updates == N


def test_mst_update(benchmark, stream):
    result = benchmark(
        lambda: drive_scalar(MST(SRC_HIERARCHY, counters=128), stream)
    )
    assert result.packets == N


def test_mst_update_many(benchmark, stream):
    result = benchmark(lambda: drive_batch(MST(SRC_HIERARCHY, counters=128), stream))
    assert result.packets == N


def test_rhhh_update(benchmark, stream):
    result = benchmark(
        lambda: drive_scalar(RHHH(SRC_HIERARCHY, counters=128, seed=1), stream)
    )
    assert result.packets == N


def test_rhhh_update_many(benchmark, stream):
    result = benchmark(
        lambda: drive_batch(RHHH(SRC_HIERARCHY, counters=128, seed=1), stream)
    )
    assert result.packets == N


def test_memento_query(benchmark, stream):
    sketch = drive_scalar(
        Memento(window=WINDOW, counters=512, tau=1.0, seed=1), stream
    )
    keys = stream[:512]

    def run_queries():
        total = 0.0
        for key in keys:
            total += sketch.query(key)
        return total

    assert benchmark(run_queries) > 0


if __name__ == "__main__":
    raise SystemExit(main())
