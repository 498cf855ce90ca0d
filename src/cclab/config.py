"""Scenario configs: validation, loading, and materialization.

A config is one self-contained JSON document: clustering, topology (inline
matrices or a seeded generator recipe), the driving signal, optional
social-learning extension, horizon, seed, thresholds.  Loading checks the
document's shape and numbers in one walk, materializes any generator
recipes, and returns a bundle ready for the simulation and checking layers.
Vertices and cluster indices are 0-based inside configs; only rendered
reports use 1-based labels.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import System
from .generate import (
    EXAMPLE_LEARNING_STRENGTH,
    EXAMPLE_WINDOW,
    GeneratorSpec,
    check_entry_floor,
    example_alphas,
    example_clustering,
    example_graphs_switching,
    example_graph_static,
    example_learning_flags,
    example_matrix_static,
    example_schedule_switching,
    example_signal,
    gen_switching_schedule,
    _streams,
)
from .graph import Clustering, successors
from .learning import DEFAULT_SLACK, BeliefProfile, CulturalFlags
from .signals import PeriodicInput
from .stochastic import MatrixSchedule
from .verifier import Thresholds

CONFIG_VERSION = 1

# ``generated_config`` writes the coupling as triplets from this many agents
# on: the list-of-rows form grows as n^2 while the support grows with the
# edges. Below it the emitted bytes stay as they were.
SPARSE_FROM = 100


class ConfigError(ValueError):
    """Malformed or inconsistent scenario config."""


def _invalid(path, message: str) -> ConfigError:
    where = "/".join(str(p) for p in path) or "(root)"
    return ConfigError(f"config invalid at {where}: {message}")


# The document's shape is checked by one walk. Each rule below is a function
# ``check(value, path)`` that raises ``_invalid`` at the first fault in
# document order; the messages keep JSON Schema's wording.


def _string(v, path) -> None:
    if not isinstance(v, str):
        raise _invalid(path, f"{v!r} is not of type 'string'")


def _number(minimum=None, exclusive_minimum=None, maximum=None, integer=False):
    """A finite number within the given bounds; with ``integer``, an integer
    (an integral float counts)."""
    kind = "integer" if integer else "number"

    def check(v, path):
        if isinstance(v, bool) or not (
            isinstance(v, int) or isinstance(v, float) and v.is_integer()
            if integer
            else isinstance(v, numbers.Real)
        ):
            raise _invalid(path, f"{v!r} is not of type '{kind}'")
        if minimum is not None and v < minimum:
            raise _invalid(path, f"{v!r} is less than the minimum of {minimum!r}")
        if exclusive_minimum is not None and v <= exclusive_minimum:
            raise _invalid(
                path, f"{v!r} is less than or equal to the minimum of {exclusive_minimum!r}"
            )
        if maximum is not None and v > maximum:
            raise _invalid(path, f"{v!r} is greater than the maximum of {maximum!r}")
        try:
            finite = math.isfinite(v)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise _invalid(path, f"{v!r} is not a finite number")

    return check


def _enum(*values):
    def check(v, path):
        if isinstance(v, bool) or v not in values:
            raise _invalid(path, f"{v!r} is not one of {list(values)!r}")

    return check


def _array_shape(v, path, min_items: int = 0, max_items: Optional[int] = None) -> None:
    if not isinstance(v, list):
        raise _invalid(path, f"{v!r} is not of type 'array'")
    if len(v) < min_items:
        short = "should be non-empty" if min_items == 1 else "is too short"
        raise _invalid(path, f"{v!r} {short}")
    if max_items is not None and len(v) > max_items:
        raise _invalid(path, f"{v!r} is too long")


def _array(item, min_items: int = 0, max_items: Optional[int] = None):
    def check(v, path):
        _array_shape(v, path, min_items, max_items)
        for i, x in enumerate(v):
            item(x, (*path, i))

    return check


def _numbers(integer: bool, min_items: int = 0):
    """An array of numbers, or (``integer``) of integers >= 0. One pass tests
    the entries' types and finiteness at once; only when it fails are the
    entries checked one by one, which finds the first bad one."""
    entry = _number(0, integer=True) if integer else _number()
    types = {int} if integer else {int, float}

    def check(v, path):
        _array_shape(v, path, min_items)
        try:
            ok = (
                set(map(type, v)) <= types
                and math.isfinite(sum(v))
                and not (integer and min(v, default=0) < 0)
            )
        except OverflowError:
            ok = False
        if not ok:
            for j, x in enumerate(v):
                entry(x, (*path, j))

    return check


_ROW = _numbers(False)


def _matrix(v, path) -> None:
    """A non-empty list of non-empty rows of numbers, all of one length."""
    _array_shape(v, path, 1)
    for i, r in enumerate(v):
        _array_shape(r, (*path, i), 1)
        if len(r) != len(v[0]):
            raise _invalid((*path, i), f"length {len(r)}, but row 0 has length {len(v[0])}")
        _ROW(r, (*path, i))


def _object(properties: dict, required: tuple = ()):
    def check(v, path):
        if not isinstance(v, dict):
            raise _invalid(path, f"{v!r} is not of type 'object'")
        extra = sorted((k for k in v if k not in properties), key=str)
        if extra:
            raise _invalid(
                path,
                f"Additional properties are not allowed ({', '.join(map(repr, extra))}"
                f" {'was' if len(extra) == 1 else 'were'} unexpected)",
            )
        for key in required:
            if key not in v:
                raise _invalid(path, f"{key!r} is a required property")
        for key, x in v.items():
            properties[key](x, (*path, key))

    return check


def _name_or(names: tuple, rule):
    """One of the strings ``names``, or an array that ``rule`` accepts."""

    def check(v, path):
        if isinstance(v, list):
            rule(v, path)
        elif v not in names:
            raise _invalid(path, f"{v!r} is not one of {list(names)!r} or an array")

    return check


_ADJACENCY = _array(_numbers(True))
_POSITIVE = _number(exclusive_minimum=0)

# A square coupling matrix as triplets: entry (rows[p], cols[p]) is vals[p],
# every other entry is zero. The three arrays are checked against each other
# and ``n`` in ``_sparse_matrix``.
_TRIPLETS = _object(
    {
        "n": _number(1, integer=True),
        "rows": _numbers(True),
        "cols": _numbers(True),
        "vals": _numbers(False),
    },
    required=("n", "rows", "cols", "vals"),
)


def _coupling(v, path) -> None:
    (_TRIPLETS if isinstance(v, dict) else _matrix)(v, path)


_RECIPE = {
    "type": _string,
    "entry_floor": _POSITIVE,
    "density": _number(minimum=0, maximum=1),
    "quotient": _matrix,
    "mode": _enum("random", "equal"),
}

_TOPOLOGIES = {
    "fixed": _object(
        {"type": _string, "matrix": _coupling, "graph": _ADJACENCY}, required=("matrix",)
    ),
    "switching": _object(
        {
            "type": _string,
            "matrices": _array(_coupling, min_items=1),
            "floor": _POSITIVE,
            "graphs": _array(_ADJACENCY),
        },
        required=("matrices",),
    ),
    "generator": _object(_RECIPE),
    "switching-generator": _object(
        {**_RECIPE, "m": _number(2, integer=True), "window": _number(1, integer=True)},
        required=("m",),
    ),
}


def _topology(v, path) -> None:
    """Checked by the rule that its ``type`` names."""
    if not isinstance(v, dict):
        raise _invalid(path, f"{v!r} is not of type 'object'")
    if "type" not in v:
        raise _invalid(path, "'type' is a required property")
    _enum(*_TOPOLOGIES)(v["type"], (*path, "type"))
    _TOPOLOGIES[v["type"]](v, path)


_CLUSTERING_KEYS = _object(
    {
        "sizes": _array(_number(1, integer=True), min_items=1),
        "clusters": _array(_numbers(True, min_items=1), min_items=1),
    }
)


def _clustering(v, path) -> None:
    _CLUSTERING_KEYS(v, path)
    if ("sizes" in v) == ("clusters" in v):
        raise _invalid(path, "exactly one of 'sizes' and 'clusters' is required")


# The fields an ensemble run reads from a config, too.
_RUN_FIELDS = {
    "seed": _number(0, integer=True),
    "horizon": _number(1, integer=True),
    "theorem": _enum(1, 2, 3, 4),
}

_DOCUMENT = _object(
    {
        "version": _enum(CONFIG_VERSION),
        "label": _string,
        "window": _number(1, integer=True),
        **_RUN_FIELDS,
        "clustering": _clustering,
        "topology": _topology,
        "signal": _object(
            {
                "period": _number(1, integer=True),
                "free_values": _numbers(False),
                "alphas": _numbers(False, min_items=1),
                "strength": _number(),
            },
            required=("period", "free_values"),
        ),
        "initial_state": _name_or(("random",), _numbers(False, min_items=1)),
        "learning": _object(
            {
                "states": _number(2, integer=True),
                "flags": _matrix,
                "strength": _number(minimum=0),
                "slack": _POSITIVE,
                "initial": _name_or(("uniform", "random"), _matrix),
                "zeta": _object(
                    {
                        "clusters": _array(_number(0, integer=True), min_items=2, max_items=2),
                        "state": _number(0, integer=True),
                    }
                ),
            },
            required=("states", "flags"),
        ),
        "thresholds": _object(
            {
                "sync_scale": _POSITIVE,
                "separation": _POSITIVE,
                "periodic": _POSITIVE,
                "common_influence": _POSITIVE,
                "zero": _number(minimum=0),
            }
        ),
    },
    required=("version", "clustering", "topology"),
)


def run_fields(doc: dict) -> dict:
    """The ``seed``, ``horizon`` and ``theorem`` that ``doc`` sets, checked by
    the document's own rules and read as integers."""
    fields = {}
    for key, rule in _RUN_FIELDS.items():
        if key in doc:
            rule(doc[key], (key,))
            fields[key] = int(doc[key])
    return fields


def _check_support(path: tuple, graph: Optional[list], a: np.ndarray) -> None:
    """``graph[j]`` must list agent i exactly when ``a[i, j] > 0``."""
    if graph is None:
        return
    if len(graph) != a.shape[0]:
        raise _invalid(path, f"{len(graph)} adjacency lists for {a.shape[0]} agents")
    for j, column in enumerate(a.T > 0):
        support = np.flatnonzero(column).tolist()
        if set(graph[j]) != set(support):
            raise _invalid(
                (*path, j),
                f"lists {sorted(set(graph[j]))}, but column {j} of the matrix"
                f" is positive at {support}",
            )


@dataclass(frozen=True)
class LearningSetup:
    flags: CulturalFlags
    profile0: BeliefProfile
    slack: float
    zeta_clusters: tuple[int, int]
    zeta_state: int


@dataclass(frozen=True)
class Scenario:
    """A fully materialized config: everything the commands need to run."""

    system: System
    x0: np.ndarray
    horizon: int
    window: int
    theorem: int
    seed: Optional[int]
    label: str
    learning: Optional[LearningSetup]
    thresholds: Thresholds


def load_config(path: str, overrides: Optional[dict] = None) -> tuple[dict, str]:
    """The document at ``path`` with ``overrides`` applied, and the SHA-256
    of the file's bytes followed by the overrides' compact sorted JSON, if
    any: with none, what ``sha256sum`` prints for the file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer literal too long to convert
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _invalid((), f"{doc!r} is not of type 'object'")
    digest = hashlib.sha256(data)
    if overrides:
        doc.update(overrides)
        digest.update(json.dumps(overrides, sort_keys=True, separators=(",", ":")).encode())
    return doc, digest.hexdigest()


def emit_config(doc: dict, path: Optional[str] = None) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _inline(top: dict) -> Optional[tuple[list, list]]:
    """The matrices and the adjacency lists of an inline topology, each a
    list of ``(config path, entry)``; a ``fixed`` topology reads as the
    one-entry ``switching`` one, and a missing adjacency list as None.
    None for a generator recipe."""
    if top["type"] == "fixed":
        return [(("topology", "matrix"), top["matrix"])], [
            (("topology", "graph"), top.get("graph"))
        ]
    if top["type"] != "switching":
        return None
    mats = top["matrices"]
    graphs = top.get("graphs", [None] * len(mats))
    return (
        [(("topology", "matrices", p), m) for p, m in enumerate(mats)],
        [(("topology", "graphs", p), g) for p, g in enumerate(graphs)],
    )


def _check_agent_count(doc: dict, n: int) -> None:
    """An inline topology's first matrix must have ``n`` rows (or triplet
    ``n``); a generator recipe takes its ``n`` from the clustering, and its
    entry floor must be at most ``1/n``."""
    top = doc["topology"]
    inline = _inline(top)
    if inline is None:
        try:
            check_entry_floor(top.get("entry_floor", GeneratorSpec.entry_floor), n)
        except ValueError as exc:
            raise ConfigError(f"topology: {exc}") from exc
        return
    path, m = inline[0][0]
    if isinstance(m, dict):
        if m["n"] != n:
            raise _invalid((*path, "n"), f"{m['n']!r} agents, but the clustering has {n}")
    elif len(m) != n:
        raise ConfigError("matrix size disagrees with the clustering")


def _build_clustering(doc: dict) -> Clustering:
    section = doc["clustering"]
    if "sizes" in section:
        # Compared with the topology before from_sizes builds a tuple per
        # vertex; a total past the index range raises from_sizes' OverflowError.
        _check_agent_count(doc, len(range(int(sum(section["sizes"])))))
        return Clustering.from_sizes(tuple(section["sizes"]))
    clusters = tuple(tuple(sorted(c)) for c in section["clusters"])
    n = int(max(max(c) for c in clusters)) + 1
    clustering = Clustering(n, clusters)
    _check_agent_count(doc, n)
    return clustering


def _require_seed(doc: dict, why: str) -> int:
    if "seed" not in doc:
        raise ConfigError(f"seed required: {why}")
    return int(doc["seed"])


def _sparse_matrix(sp: dict, path: tuple, n: int) -> np.ndarray:
    """The dense n-by-n array of a triplet-form matrix, zero off its
    triplets; the same floats as the list-of-rows form of that matrix."""
    rows, cols, vals = sp["rows"], sp["cols"], sp["vals"]
    if sp["n"] != n:
        raise _invalid((*path, "n"), f"{sp['n']!r} agents, but the clustering has {n}")
    if not len(rows) == len(cols) == len(vals):
        raise _invalid(
            path,
            f"rows, cols and vals have {len(rows)}, {len(cols)} and {len(vals)} entries",
        )
    for key in ("rows", "cols"):
        # Compared as Python numbers first: an index past the C integer
        # range must not reach numpy.
        if max(sp[key], default=0) >= n:
            p = next(p for p, v in enumerate(sp[key]) if v >= n)
            raise _invalid((*path, key, p), f"{sp[key][p]!r} is not below n = {n}")
    flat = np.array(rows, dtype=np.intp) * n + np.array(cols, dtype=np.intp)
    order = np.argsort(flat, kind="stable")
    repeats = np.flatnonzero(flat[order[1:]] == flat[order[:-1]])
    if repeats.size:
        first, again = order[repeats[0]], order[repeats[0] + 1]
        i, j = divmod(int(flat[first]), n)
        raise _invalid(path, f"entries {first} and {again} both give ({i}, {j})")
    a = np.zeros(n * n)
    a[flat] = vals
    return a.reshape(n, n)


def _coupling_matrix(m, path: tuple, n: int) -> np.ndarray:
    """One coupling matrix given as rows or as triplets, as parsed; the
    schedule validates it."""
    if isinstance(m, dict):
        return _sparse_matrix(m, path, n)
    return np.array(m, dtype=float)


def _build_topology(doc: dict, clustering: Clustering):
    top = doc["topology"]
    inline = _inline(top)
    if inline is not None:
        matrices, graphs = inline
        sched = MatrixSchedule(
            tuple(_coupling_matrix(m, path, clustering.n) for path, m in matrices),
            floor=top.get("floor"),
        )
        if len(graphs) != sched.period:
            raise _invalid(
                ("topology", "graphs"), f"{len(graphs)} graphs for {sched.period} matrices"
            )
        for (path, g), mat in zip(graphs, sched.matrices):
            _check_support(path, g, mat)
        return sched
    # generator recipes need the contiguous sizes layout
    sizes = clustering.sizes
    if clustering != Clustering.from_sizes(sizes):
        raise ConfigError(
            "generator topologies require clustering given as contiguous sizes"
        )
    seed = _require_seed(doc, "topology is generated")
    quotient = (
        np.array(top["quotient"], dtype=float) if "quotient" in top else None
    )
    spec = GeneratorSpec(
        cluster_sizes=sizes,
        seed=seed,
        quotient=quotient,
        entry_floor=top.get("entry_floor", GeneratorSpec.entry_floor),
        density=top.get("density", GeneratorSpec.density),
    )
    m = int(top.get("m", 1))
    # A recipe without a mode takes the generator's default.
    mode = {"mode": top["mode"]} if "mode" in top else {}
    return gen_switching_schedule(spec, m=m, window=top.get("window", m), **mode)


def _build_signal(
    doc: dict, clustering: Clustering
) -> tuple[Optional[tuple[float, ...]], Optional[PeriodicInput]]:
    if "signal" not in doc:
        return None, None
    sec = doc["signal"]
    sig = PeriodicInput(int(sec["period"]), tuple(sec["free_values"]))
    if "alphas" not in sec:
        return None, sig
    strength = sec.get("strength", 1.0)
    alphas = tuple(strength * a for a in sec["alphas"])
    if len(alphas) != clustering.k:
        raise ConfigError("one alpha per cluster required")
    return alphas, sig


def _build_learning(
    doc: dict, clustering: Clustering, rng: Optional[np.random.Generator]
) -> Optional[LearningSetup]:
    if "learning" not in doc:
        return None
    sec = doc["learning"]
    m = int(sec["states"])
    flags_tab = np.array(sec["flags"], dtype=float)
    if flags_tab.shape != (clustering.k, m):
        raise ConfigError("flag table must be clusters x states")
    try:
        flags = CulturalFlags(flags_tab, strength=sec.get("strength", CulturalFlags.strength))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    initial = sec.get("initial", "random")
    if initial == "uniform":
        profile0 = BeliefProfile.uniform(clustering.n, m)
    elif initial == "random":
        if rng is None:
            raise ConfigError("seed required: learning initial beliefs are random")
        profile0 = BeliefProfile.random(rng, clustering.n, m)
    else:
        arr = np.array(initial, dtype=float)
        if arr.shape != (clustering.n, m):
            raise ConfigError("initial beliefs must be agents x states")
        try:
            profile0 = BeliefProfile(arr)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    zeta = sec.get("zeta", {})
    default_pair = (1, 2) if clustering.k >= 3 else (0, min(1, clustering.k - 1))
    pair = tuple(int(c) for c in zeta.get("clusters", default_pair))
    state = int(zeta.get("state", 0))
    if pair[0] == pair[1] or max(pair) >= clustering.k:
        raise ConfigError("zeta clusters must be two distinct cluster indices")
    if state >= m:
        raise ConfigError("zeta state out of range")
    return LearningSetup(
        flags=flags,
        profile0=profile0,
        slack=sec.get("slack", DEFAULT_SLACK),
        zeta_clusters=(pair[0], pair[1]),
        zeta_state=state,
    )


def build_scenario(doc: dict) -> Scenario:
    """Validate a config document and materialize every component."""
    _DOCUMENT(doc, ())

    try:
        clustering = _build_clustering(doc)
    except (ValueError, OverflowError) as exc:  # OverflowError: a size past the C integer range
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"clustering: {exc}") from exc
    try:
        coupling = _build_topology(doc, clustering)
    except (ValueError, RuntimeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"topology: {exc}") from exc
    try:
        alphas, sig = _build_signal(doc, clustering)
        system = System(coupling, clustering, alphas, sig)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    fields = run_fields(doc)
    seed = fields.get("seed")
    rng = None
    if seed is not None:
        rng = np.random.default_rng(_streams(seed)["state"])

    init = doc.get("initial_state", "random")
    if init == "random":
        if rng is None:
            raise ConfigError("seed required: initial state is random")
        x0 = rng.uniform(-1.0, 1.0, size=clustering.n)
    else:
        x0 = np.array(init, dtype=float)
        if x0.shape != (clustering.n,):
            raise ConfigError("initial state length disagrees with the clustering")

    learning = _build_learning(doc, clustering, rng)

    switching = system.is_switching
    horizon = fields.get("horizon", 5000 if switching else 2000)
    window = int(doc.get("window", doc["topology"].get("window", system.coupling.period)))
    theorem = fields.get(
        "theorem",
        (4 if sig is not None else 3) if switching else (2 if sig is not None else 1),
    )

    thresholds = Thresholds(**doc.get("thresholds", {}))

    return Scenario(
        system=system,
        x0=x0,
        horizon=horizon,
        window=window,
        theorem=theorem,
        seed=seed,
        label=doc.get("label", "scenario"),
        learning=learning,
        thresholds=thresholds,
    )


# ---------------------------------------------------------------------------
# Emitters used by the gen command.


def _matrix_doc(a: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in a]


def _sparse_doc(a: np.ndarray) -> dict:
    rows, cols = np.nonzero(a)
    return {
        "n": a.shape[0],
        "rows": rows.tolist(),
        "cols": cols.tolist(),
        "vals": a[rows, cols].tolist(),
    }


def example_config(which: str) -> dict:
    """Self-contained config for the bundled fixed or switching example."""
    if which not in ("A", "B"):
        raise ConfigError("example must be 'A' or 'B'")
    signal = {
        "period": example_signal().period,
        "free_values": list(example_signal().free_values),
        "alphas": list(example_alphas()),
    }
    learning = {
        "states": 2,
        "flags": _matrix_doc(example_learning_flags()),
        "strength": EXAMPLE_LEARNING_STRENGTH,
    }
    base = {
        "version": CONFIG_VERSION,
        "clustering": {"sizes": list(example_clustering().sizes)},
        "signal": signal,
        "learning": learning,
        "initial_state": "random",
    }
    if which == "A":
        base.update(
            label="paper-example-A",
            seed=2024,
            horizon=2000,
            theorem=2,
            topology={
                "type": "fixed",
                "matrix": _matrix_doc(example_matrix_static()),
                "graph": successors(example_graph_static()),
            },
        )
    else:
        schedule = example_schedule_switching()
        base.update(
            label="paper-example-B",
            seed=2024,
            horizon=5000,
            theorem=4,
            window=EXAMPLE_WINDOW,
            topology={
                "type": "switching",
                "matrices": [_matrix_doc(m) for m in schedule.matrices],
                "floor": schedule.floor,
                "graphs": [successors(s) for s in example_graphs_switching()],
            },
        )
    return base


def generated_config(
    sizes: tuple[int, ...],
    seed: int,
    m: int = 1,
    window: Optional[int] = None,
    entry_floor: float = GeneratorSpec.entry_floor,
    density: float = GeneratorSpec.density,
    mode: str = "random",
    horizon: Optional[int] = None,
) -> dict:
    """Materialize a seeded random instance and wrap it as a config.

    The emitted document inlines the realized matrices so it is
    reproducible without re-running the generator. From ``SPARSE_FROM``
    agents on they are triplets, whose indices are the support; below it
    they are lists of rows, with the fixed matrix's support graph beside it.
    """
    spec = GeneratorSpec(
        cluster_sizes=tuple(sizes), seed=seed, entry_floor=entry_floor, density=density
    )
    window = m if window is None else window
    schedule = gen_switching_schedule(spec, m=m, window=window, mode=mode)
    k = len(spec.cluster_sizes)
    if k == 1:
        alphas = [1.0]
    else:
        alphas = [round(1.0 - 1.5 * p / (k - 1), 9) for p in range(k)]
    matrix_doc = _sparse_doc if spec.n >= SPARSE_FROM else _matrix_doc
    doc = {
        "version": CONFIG_VERSION,
        "label": f"generated-{'switching' if m > 1 else 'fixed'}-n{spec.n}",
        "seed": seed,
        "clustering": {"sizes": list(spec.cluster_sizes)},
        "signal": {"period": 2, "free_values": [-1.0], "alphas": alphas},
        "initial_state": "random",
    }
    if m > 1:
        doc["window"] = window
        doc["horizon"] = horizon if horizon is not None else 5000
        doc["theorem"] = 4
        doc["topology"] = {
            "type": "switching",
            "matrices": [matrix_doc(mat) for mat in schedule.matrices],
            "floor": schedule.floor,
        }
    else:
        (mat,) = schedule.matrices
        doc["horizon"] = horizon if horizon is not None else 2000
        doc["theorem"] = 2
        doc["topology"] = {"type": "fixed", "matrix": matrix_doc(mat)}
        if spec.n < SPARSE_FROM:
            doc["topology"]["graph"] = successors(mat > 0)
    return doc
