"""End-to-end runs of the benchmark command at tiny sizes."""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _command(workload, seconds, trace, seed=3):
    return [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--tiny"]


def _alive(pid):
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    out = subprocess.run(_command(workload, 1, trace), cwd=ROOT, capture_output=True,
                         text=True, timeout=170)
    assert out.returncode == 0, out.stderr[-2000:] + out.stdout[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in CONTRACT["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(_command("memento-direct", 1, 0), cwd=tmp_path,
                         capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.parametrize("workload, seconds, trace, marker", [
    # the sharded engine's workers and shm rings live in this phase
    ("memento-direct", 12, 1, "sharding layers"),
    ("memento-service", 60, 0, "timed phase"),
])
def test_sigterm_mid_run_leaves_nothing_behind(workload, seconds, trace, marker):
    proc = subprocess.Popen(_command(workload, seconds, trace), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    stderr = []
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            line = proc.stderr.readline()
            stderr.append(line)
            if marker in line or not line:
                break
        assert marker in stderr[-1], "".join(stderr)
        time.sleep(0.5)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode not in (0, None)
    assert '"correct"' not in out
    daemons = [int(pid) for pid in re.findall(r"daemon pid (\d+)", "".join(stderr) + err)]
    time.sleep(0.5)
    # nothing left in the benchmark's session or the daemons' sessions
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or not _alive(int(pid)):
            continue
        try:
            sid = int(Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[3])
        except OSError:
            continue
        assert sid not in {proc.pid, *daemons}, f"process {pid} of session {sid} survived"
    shm = Path("/dev/shm")
    if shm.is_dir():
        assert not [p.name for p in shm.iterdir() if f"_{proc.pid}_" in p.name]
