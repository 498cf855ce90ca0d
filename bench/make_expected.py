"""Record the expected outputs the benchmark checks against.

    python3 bench/make_expected.py > bench/expected.json

Run it only at a commit whose outputs are known to be right: the benchmark
then holds every later commit to them. It records

* ``examples``: SHA-256 of trajectory.csv and beliefs.csv of examples A and B
  at their own seed (the byte-identical contract);
* ``ensemble``: the instance count per claim and, for each of the first
  ``POOL_SIZE`` ensemble seeds, the status counts of claims 2 and 4;
* ``large``: the verdict of each generated instance, which satisfies its
  claim by construction whatever the seed.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from cclab import cli, verifier  # noqa: E402
from cclab.config import emit_config, example_config  # noqa: E402

from workloads import sha256_file  # noqa: E402

ENSEMBLE_COUNT = {"2": 40, "4": 16}
POOL_SIZE = 48


def reference_digests(work: str) -> dict:
    out = {}
    for which in "AB":
        config = os.path.join(work, f"{which}.json")
        emit_config(example_config(which), config)
        for command, artifact in (("simulate", "trajectory.csv"), ("learn", "beliefs.csv")):
            outdir = os.path.join(work, f"{which}-{command}")
            with redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", config, "--out", outdir])
            if code != 0:
                sys.exit(f"error: {command} {which} exited {code}")
            out[f"{which}/{artifact}"] = sha256_file(os.path.join(outdir, artifact))
    return out


def ensemble_pool() -> list:
    pool = []
    for seed in range(1, POOL_SIZE + 1):
        counts = {}
        for claim, count in ENSEMBLE_COUNT.items():
            summary = verifier.run_ensemble(int(claim), count=count, seed=seed)
            if summary.exceptions:
                sys.exit(f"error: claim {claim} seed {seed}: {summary.exceptions}")
            counts[claim] = summary.counts
        pool.append({"seed": seed, "counts": counts})
    return pool


def main() -> None:
    work = tempfile.mkdtemp(prefix=".bench_expected-", dir=ROOT)
    try:
        digests = reference_digests(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {
        "examples": {"reference_sha256": digests},
        "ensemble": {"count": ENSEMBLE_COUNT, "pool": ensemble_pool()},
        "large": {"dense": {"verdict": "PASS"}, "sparse": {"verdict": "PASS"}},
    }
    print(json.dumps(doc, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
