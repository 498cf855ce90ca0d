"""Byte pins on the CLI's outputs.

Every record holds the exit code and the SHA-256 of stdout, stderr and each
file one command writes: ``check --out``, ``simulate``, ``report`` and
``learn`` on the bundled examples A and B, and ``check --out``,
``simulate`` and ``report`` on a generated config of three 40-agent
clusters. At three agents per cluster (A and B) the order in which a
per-cluster sum adds its terms cannot change a bit; at 40 it can, so the
generated config is what catches a reordered reduction.

Re-record the pins only at a commit whose outputs are known to be right:

    PYTHONPATH=src python3 tests/test_pins.py > tests/pins.json
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from cclab.cli import main

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

CONFIGS = {
    "A": ["--paper-example", "A"],
    "B": ["--paper-example", "B"],
    "gen40": ["--sizes", "40,40,40", "--seed", "1", "--entry-floor", "0.005"],
}
COMMANDS = [
    (name, cmd)
    for name in CONFIGS
    for cmd in ("check", "simulate", "report") + (("learn",) if name in ("A", "B") else ())
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _config(work: str, name: str) -> str:
    path = os.path.join(work, f"{name}.json")
    if not os.path.exists(path):
        _cli(["gen", *CONFIGS[name], "--out", path])
    return path


def record(work: str, name: str, cmd: str) -> dict:
    """Run ``cmd`` on config ``name`` with outputs under ``work``."""
    config = _config(work, name)
    outdir = os.path.join(work, f"{name}-{cmd}")
    os.makedirs(outdir)
    target = os.path.join(outdir, "report.json") if cmd == "check" else outdir
    code, out, err = _cli([cmd, "--config", config, "--out", target])
    files = {}
    for fname in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, fname), "rb") as fh:
            files[fname] = _sha(fh.read())
    return {"exit": code, "stdout": _sha(out.encode()), "stderr": _sha(err.encode()), "files": files}


@pytest.fixture(scope="module")
def pins():
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return str(tmp_path_factory.mktemp("pins"))


def test_generated_configs_are_pinned(work, pins):
    for name in CONFIGS:
        with open(_config(work, name), "rb") as fh:
            assert _sha(fh.read()) == pins[f"{name}/config"], name


@pytest.mark.parametrize("name,cmd", COMMANDS, ids=[f"{n}-{c}" for n, c in COMMANDS])
def test_command_outputs_are_pinned(work, pins, name, cmd):
    assert record(work, name, cmd) == pins[f"{name}/{cmd}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {f"{name}/{cmd}": record(tmp, name, cmd) for name, cmd in COMMANDS}
        for name in CONFIGS:
            with open(_config(tmp, name), "rb") as fh:
                doc[f"{name}/config"] = _sha(fh.read())
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
