"""The environment a result was measured in, and the rule for comparing two.

Timings taken on different core counts, CPUs, BLAS builds or thread
settings are not comparable: a "regression" between them is usually
the environment, not the code.  Every result carries :func:`record`,
and :func:`differences` names the fields that disagree so a comparison
can refuse instead of reporting a phantom change.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

#: Fields that must match for two results to be compared.  The commit
#: is recorded but deliberately excluded: comparing two commits is the
#: point of a comparison.
ENVIRONMENT_KEYS = (
    "cores",
    "cpu_model",
    "python",
    "numpy",
    "blas",
    "blas_threads",
    "repro_gemm_threads",
)

#: Environment variables that set BLAS / OpenMP thread pools.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # numpy builds without the dict form
        return "unknown"


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def record(root: Path) -> dict:
    """The measurement environment of this process."""
    import numpy as np

    cores = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    )
    return {
        "cores": cores,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "repro_gemm_threads": os.environ.get("REPRO_GEMM_THREADS"),
        "commit": _commit(root),
    }


def cpu_times() -> list[int] | None:
    """The machine-wide CPU time counters (``/proc/stat``), or ``None``."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            return [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_times` readings -- high steal explains a slow run."""
    if before is None or after is None or len(before) < 8:
        return None
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas[:8])
    return deltas[7] / total if total else None


def differences(first: dict, second: dict) -> list[str]:
    """``"key: a != b"`` for every environment field that disagrees."""
    return [
        f"{key}: {first.get(key)!r} != {second.get(key)!r}"
        for key in ENVIRONMENT_KEYS
        if first.get(key) != second.get(key)
    ]
