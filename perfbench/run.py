"""The repository benchmark: one command, four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``memento-direct``, ``memento-service`` and ``hhh-netwide``
(see ``perfbench/README.md`` for why each exists; the traced run of
``memento-direct`` also measures the sharding layers).
``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs half
the time untraced and half traced and prints every per-layer metric,
with spans written to ``.perfbench_out/``.  Every run checks its answers
against exact oracles and proves that no process or shared-memory
segment it started outlives it.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The program under test is imported from ``src/`` of the checkout the
command runs in; without it the command fails before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR.parent) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR.parent))

from perfbench import reap  # noqa: E402

#: the metric names and units every run prints
CONTRACT_PATH = BENCH_DIR.parent / "BENCHMARK.json"

WORKLOADS = ("memento-direct", "memento-service", "hhh-netwide")
#: a run that has not finished by then is interrupted and torn down
WORKLOAD_TIMEOUT_S = 150.0
OUT_DIR = ".perfbench_out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and one set-up, for the benchmark's own tests")
    return parser.parse_args(argv)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def import_program(root: Path) -> None:
    """Put the checkout's ``src/`` first on the path and import it."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program under {src} (run from the root of a checkout)")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def expected_metrics(trace: bool):
    """``{name: unit}`` the result line must carry."""
    contract = json.loads(CONTRACT_PATH.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in contract[key]}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_program(root)
    from perfbench.common import RunContext
    from perfbench.inproc import run_direct
    from perfbench.netwide import run_netwide
    from perfbench.service import run_service

    runners = {
        "memento-direct": run_direct,
        "memento-service": run_service,
        "hhh-netwide": run_netwide,
    }
    out_dir = root / OUT_DIR
    work_dir = out_dir / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    ledger = reap.ProcessLedger()
    ctx = RunContext(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                     tiny=args.tiny, ledger=ledger, root=root, work_dir=work_dir, log=log)
    reap.install_signal_handlers(WORKLOAD_TIMEOUT_S)
    metrics = None
    interrupted = None
    started = time.perf_counter()
    try:
        metrics = runners[args.workload](ctx)
    except reap.Interrupted as exc:
        interrupted = str(exc)
    finally:
        reap.disarm_timeout()
        ledger.stop_all()
        leaks = reap.leak_report(ledger)
        if any(leaks.values()):
            reap.kill_leftovers(leaks)
        shutil.rmtree(work_dir, ignore_errors=True)
    if any(leaks.values()):
        log(f"leak check failed: {leaks}")
    if interrupted is not None:
        log(f"interrupted ({interrupted}); torn down, no result")
        return 3
    leak_free = not any(leaks.values())
    metrics.check("no process or shm segment outlives the run", leak_free, json.dumps(leaks))
    return report(args, metrics, time.perf_counter() - started, out_dir)


def report(args, metrics, wall_s: float, out_dir: Path) -> int:
    """Print the human summary, the run record and the result line."""
    wanted = expected_metrics(bool(args.trace))
    values = {}
    for name, unit in wanted.items():
        if name in metrics.values:
            value, got_unit = metrics.values[name]
            if got_unit != unit:
                raise RuntimeError(f"{name}: unit {got_unit!r} != contract {unit!r}")
        else:
            value = 0.0  # a layer this workload does not run
        values[name] = {"value": value, "unit": unit}
    error_rate = metrics.failed / metrics.attempted if metrics.attempted else 0.0
    for name, ok, detail in metrics.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, entry in values.items():
        print(f"{name:44s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"error_rate {error_rate:.6g} ({metrics.failed}/{metrics.attempted}); wall {wall_s:.1f}s")
    record = dict(metrics.record, trace=bool(args.trace), wall_s=wall_s,
                  error_rate=error_rate, metrics=values, extra={
                      k: v for k, v in metrics.values.items() if k not in values})
    print("record " + json.dumps(record, sort_keys=True, default=str))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))
    correct = metrics.correct
    print(json.dumps({"correct": correct, "attempted": metrics.attempted,
                      "failed": metrics.failed, "metrics": values}), flush=True)
    return 0 if correct and metrics.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
