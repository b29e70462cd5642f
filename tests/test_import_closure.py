"""Import-closure guard: the package and the ``repro-serve`` entry point
load no third-party module beyond numpy, the one runtime dependency
``pyproject.toml`` declares.

Each import runs in a fresh interpreter and is compared against what a
bare ``python -c pass`` loads in the same interpreter and environment
(site ``.pth`` hooks may already pull in modules of their own); every
other top-level module must be in ``sys.stdlib_module_names``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: top-level modules the package may load besides the standard library
ALLOWED = frozenset({"repro", "numpy"})

DEADLINE_S = 60

pytestmark = pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"),
    reason="sys.stdlib_module_names needs Python 3.10+",
)


def loaded_top_level(statement: str) -> set:
    """Top-level names of every module loaded after running ``statement``
    in a fresh interpreter, leaving out ``__main__`` and its aliases
    (multiprocessing registers it again as ``__mp_main__``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    script = (
        f"{statement}\n"
        "import json, sys\n"
        "main = sys.modules['__main__']\n"
        "names = {n.partition('.')[0] for n, m in sys.modules.items() if m is not main}\n"
        "print(json.dumps(sorted(names)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=DEADLINE_S,
        check=True,
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def baseline():
    return loaded_top_level("pass")


@pytest.mark.parametrize("module", ["repro", "repro.service.__main__"])
def test_imports_only_stdlib_and_numpy(baseline, module):
    loaded = loaded_top_level(f"import {module}")
    assert {"repro", "numpy"} <= loaded
    third_party = loaded - baseline - ALLOWED - set(sys.stdlib_module_names)
    assert not third_party, sorted(third_party)
