"""What a result was measured on: the machine, the versions and the commit."""

from __future__ import annotations

import importlib.metadata
import os
import platform
import subprocess


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _proc_field(path: str, key: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit(root: str) -> str:
    """The checked-out commit; "unknown" where ``root`` is not a git work
    tree of its own or git is missing."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def record(root: str, ensemble_pool: int) -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "cpu": _proc_field("/proc/cpuinfo", "model name"),
        "ram": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "jsonschema": importlib.metadata.version("jsonschema"),
        "ensemble_pool": ensemble_pool,
        "commit": git_commit(root),
    }
