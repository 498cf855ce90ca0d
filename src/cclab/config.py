"""Scenario configs: JSON schema, loading, and materialization.

A config is one self-contained JSON document: clustering, topology (inline
matrices or a seeded generator recipe), the driving signal, optional
social-learning extension, horizon, seed, thresholds.  Loading validates
against the schema, materializes any generator recipes, and returns a bundle
ready for the simulation and checking layers.  Vertices and cluster indices
are 0-based inside configs; only rendered reports use 1-based labels.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import jsonschema
import numpy as np

from .dynamics import System
from .generate import (
    EXAMPLE_LEARNING_STRENGTH,
    EXAMPLE_WINDOW,
    GeneratorSpec,
    example_alphas,
    example_clustering,
    example_graphs_switching,
    example_graph_static,
    example_learning_flags,
    example_matrix_static,
    example_schedule_switching,
    example_signal,
    gen_common_influence_matrix,
    gen_graph_with_cluster_trees,
    gen_switching_schedule,
    _streams,
)
from .graph import Clustering, DirectedGraph
from .learning import DEFAULT_SLACK, BeliefProfile, CulturalFlags
from .signals import ClusterOffsets, PeriodicInput
from .stochastic import MatrixSchedule, validate
from .verifier import Thresholds

CONFIG_VERSION = 1

# ``generated_config`` writes the coupling as triplets from this many agents
# on: the list-of-rows form grows as n^2 while the support grows with the
# edges. Below it the emitted bytes stay as they were.
SPARSE_FROM = 100

# Matrix-valued leaves are checked here for shape only; their entries are
# checked row by row in ``_check_numbers``, which keeps the messages the
# per-entry schema gave ("number" entries, "integer" entries >= 0).
_NUMBER_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1},
}

_ADJACENCY = {"type": "array", "items": {"type": "array"}}

# A square coupling matrix as triplets: entry (rows[p], cols[p]) is vals[p],
# every other entry is zero. Only the shape is checked here; the three
# arrays are checked in ``_check_numbers`` and against each other and ``n``
# in ``_sparse_matrix``.
_SPARSE_MATRIX = {
    "type": "object",
    "additionalProperties": False,
    "required": ["n", "rows", "cols", "vals"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "rows": {"type": "array"},
        "cols": {"type": "array"},
        "vals": {"type": "array"},
    },
}

# if/then/else rather than oneOf keeps the dense form's messages: the
# failing branch's errors are reported as they are, not as a oneOf miss.
_COUPLING = {"if": {"type": "object"}, "then": _SPARSE_MATRIX, "else": _NUMBER_MATRIX}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["version", "clustering", "topology"],
    "properties": {
        "version": {"const": CONFIG_VERSION},
        "label": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
        "horizon": {"type": "integer", "minimum": 1},
        "window": {"type": "integer", "minimum": 1},
        "theorem": {"enum": [1, 2, 3, 4]},
        "clustering": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sizes": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "integer", "minimum": 1},
                },
                "clusters": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"type": "integer", "minimum": 0},
                    },
                },
            },
            "oneOf": [{"required": ["sizes"]}, {"required": ["clusters"]}],
        },
        "topology": {
            "type": "object",
            "required": ["type"],
            "oneOf": [
                {
                    "properties": {
                        "type": {"const": "fixed"},
                        "matrix": _COUPLING,
                        "graph": _ADJACENCY,
                    },
                    "required": ["type", "matrix"],
                    "additionalProperties": False,
                },
                {
                    "properties": {
                        "type": {"const": "switching"},
                        "matrices": {
                            "type": "array",
                            "minItems": 1,
                            "items": _COUPLING,
                        },
                        "floor": {"type": "number", "exclusiveMinimum": 0},
                        "graphs": {"type": "array", "items": _ADJACENCY},
                    },
                    "required": ["type", "matrices"],
                    "additionalProperties": False,
                },
                {
                    "properties": {
                        "type": {"const": "generator"},
                        "entry_floor": {"type": "number", "exclusiveMinimum": 0},
                        "density": {"type": "number", "minimum": 0, "maximum": 1},
                        "quotient": _NUMBER_MATRIX,
                        "mode": {"enum": ["random", "equal"]},
                    },
                    "required": ["type"],
                    "additionalProperties": False,
                },
                {
                    "properties": {
                        "type": {"const": "switching-generator"},
                        "m": {"type": "integer", "minimum": 2},
                        "window": {"type": "integer", "minimum": 1},
                        "entry_floor": {"type": "number", "exclusiveMinimum": 0},
                        "density": {"type": "number", "minimum": 0, "maximum": 1},
                        "quotient": _NUMBER_MATRIX,
                        "mode": {"enum": ["random", "equal"]},
                    },
                    "required": ["type", "m"],
                    "additionalProperties": False,
                },
            ],
        },
        "signal": {
            "type": "object",
            "additionalProperties": False,
            "required": ["period", "free_values"],
            "properties": {
                "period": {"type": "integer", "minimum": 1},
                "free_values": {"type": "array", "items": {"type": "number"}},
                "alphas": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "number"},
                },
                "strength": {"type": "number"},
            },
        },
        "initial_state": {
            "oneOf": [
                {"const": "random"},
                {"type": "array", "minItems": 1, "items": {"type": "number"}},
            ]
        },
        "learning": {
            "type": "object",
            "additionalProperties": False,
            "required": ["states", "flags"],
            "properties": {
                "states": {"type": "integer", "minimum": 2},
                "flags": _NUMBER_MATRIX,
                "strength": {"type": "number", "minimum": 0},
                "slack": {"type": "number", "exclusiveMinimum": 0},
                "initial": {
                    "oneOf": [
                        {"enum": ["uniform", "random"]},
                        _NUMBER_MATRIX,
                    ]
                },
                "zeta": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "clusters": {
                            "type": "array",
                            "minItems": 2,
                            "maxItems": 2,
                            "items": {"type": "integer", "minimum": 0},
                        },
                        "state": {"type": "integer", "minimum": 0},
                    },
                },
            },
        },
        "thresholds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sync_scale": {"type": "number", "exclusiveMinimum": 0},
                "separation": {"type": "number", "exclusiveMinimum": 0},
                "periodic": {"type": "number", "exclusiveMinimum": 0},
                "common_influence": {"type": "number", "exclusiveMinimum": 0},
                "zero": {"type": "number", "minimum": 0},
            },
        },
    },
}


class ConfigError(ValueError):
    """Malformed or inconsistent scenario config."""


def _invalid(path, message: str) -> ConfigError:
    where = "/".join(str(p) for p in path) or "(root)"
    return ConfigError(f"config invalid at {where}: {message}")


@functools.cache
def _validator() -> jsonschema.Draft202012Validator:
    return jsonschema.Draft202012Validator(SCHEMA)


def _finite_problem(v) -> Optional[str]:
    try:
        if math.isfinite(v):
            return None
    except OverflowError:  # an int beyond the float range
        pass
    return f"{v!r} is not a finite number"


def _schema_problem(v, integer: bool) -> Optional[str]:
    """The message the per-entry schema gave for a bad matrix entry, else
    ``None``."""
    if integer:
        if isinstance(v, bool) or not (
            isinstance(v, int) or isinstance(v, float) and v.is_integer()
        ):
            return f"{v!r} is not of type 'integer'"
        return f"{v!r} is less than the minimum of 0" if v < 0 else None
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return f"{v!r} is not of type 'number'"
    return None


def _matrix_leaves(doc: dict) -> dict:
    """``id(array) -> check`` for every array that the schema checks for
    shape only; ``check(array, path)`` tests its entries."""
    top = doc["topology"]
    learning = doc.get("learning", {})
    leaves = {}

    def add(node, check, integer, mistyped=None):
        if node is not None:
            leaves[id(node)] = functools.partial(
                check, integer=integer, mistyped=mistyped
            )

    for m in (top.get("matrix"), *top.get("matrices", ())):
        if isinstance(m, dict):
            add(m["rows"], _check_entries, True)
            add(m["cols"], _check_entries, True)
            add(m["vals"], _check_entries, False)
        else:
            add(m, _check_rows, False)
    add(learning.get("flags"), _check_rows, False)
    if isinstance(learning.get("initial"), list):
        add(learning["initial"], _check_rows, False)
    for g in (top.get("graph"), *top.get("graphs", ())):
        add(g, _check_rows, True)
    if "quotient" in top:
        # Both generator branches take a quotient, so the schema's oneOf
        # named the whole topology.
        add(
            top["quotient"],
            _check_rows,
            False,
            _invalid(["topology"], f"{top!r} is not valid under any of the given schemas"),
        )
    return leaves


def _check_entries(
    values: list, path: tuple, integer: bool, mistyped: Optional[ConfigError]
) -> None:
    """Test the entries' types and finiteness at once; search entry by entry
    only when that test fails. ``mistyped`` is the error the per-entry
    schema raised for a bad entry when it did not name the entry itself."""
    try:
        if integer:
            ok = set(map(type, values)) <= {int} and min(values, default=0) >= 0
        else:
            ok = set(map(type, values)) <= {int, float} and math.isfinite(sum(values))
    except OverflowError:
        ok = False
    if ok:
        return
    for j, v in enumerate(values):
        problem = _schema_problem(v, integer)
        if problem is not None and mistyped is not None:
            raise mistyped
        problem = problem or _finite_problem(v)
        if problem is not None:
            raise _invalid((*path, j), problem)


def _check_rows(
    rows: list, path: tuple, integer: bool, mistyped: Optional[ConfigError]
) -> None:
    """:func:`_check_entries` per row. Number matrices must be rectangular;
    adjacency lists (``integer``) need not be."""
    width = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if not integer and len(row) != width:
            raise _invalid((*path, i), f"length {len(row)}, but row 0 has length {width}")
        _check_entries(row, (*path, i), integer, mistyped)


def _check_numbers(node, path: tuple, leaves: dict) -> None:
    """Reject every non-finite number in the document, and every bad entry
    of the arrays the schema left unchecked."""
    if isinstance(node, dict):
        for key, value in node.items():
            _check_numbers(value, (*path, key), leaves)
    elif isinstance(node, list):
        check = leaves.get(id(node))
        if check is not None:
            check(node, path)
            return
        for i, value in enumerate(node):
            _check_numbers(value, (*path, i), leaves)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        problem = _finite_problem(node)
        if problem is not None:
            raise _invalid(path, problem)


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
    raw: dict

    @property
    def digest(self) -> str:
        """:func:`config_digest` of ``raw``, computed on each access."""
        return config_digest(self.raw)


def config_digest(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to convert
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def emit_config(doc: dict, path: Optional[str] = None) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _build_clustering(section: dict) -> Clustering:
    if "sizes" in section:
        return Clustering.from_sizes(tuple(section["sizes"]))
    clusters = tuple(tuple(sorted(c)) for c in section["clusters"])
    n = max(max(c) for c in clusters) + 1
    return Clustering(n, clusters)


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
    """Validate one coupling matrix given as rows or as triplets."""
    if isinstance(m, dict):
        return validate(_sparse_matrix(m, path, n))
    return validate(np.array(m, dtype=float))


def _build_topology(doc: dict, clustering: Clustering):
    top = doc["topology"]
    kind = top["type"]
    if kind == "fixed":
        mat = _coupling_matrix(top["matrix"], ("topology", "matrix"), clustering.n)
        if mat.shape[0] != clustering.n:
            raise ConfigError("matrix size disagrees with the clustering")
        _check_support(("topology", "graph"), top.get("graph"), mat)
        return mat
    if kind == "switching":
        mats = tuple(
            _coupling_matrix(m, ("topology", "matrices", p), clustering.n)
            for p, m in enumerate(top["matrices"])
        )
        if mats[0].shape[0] != clustering.n:
            raise ConfigError("matrix size disagrees with the clustering")
        graphs = top.get("graphs", [None] * len(mats))
        if len(graphs) != len(mats):
            raise _invalid(("topology", "graphs"), f"{len(graphs)} graphs for {len(mats)} matrices")
        for p, (g, mat) in enumerate(zip(graphs, mats)):
            _check_support(("topology", "graphs", p), g, mat)
        return MatrixSchedule(mats, floor=top.get("floor"))
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
        entry_floor=top.get("entry_floor", 0.05),
        density=top.get("density", 0.3),
    )
    mode = top.get("mode", "random")
    if kind == "generator":
        return gen_common_influence_matrix(
            spec, gen_graph_with_cluster_trees(spec), mode=mode
        )
    m = top["m"]
    return gen_switching_schedule(spec, m=m, window=top.get("window", m), mode=mode)


def _build_offsets(
    doc: dict, clustering: Clustering
) -> tuple[Optional[ClusterOffsets], Optional[PeriodicInput]]:
    if "signal" not in doc:
        return None, None
    sec = doc["signal"]
    sig = PeriodicInput(sec["period"], tuple(sec["free_values"]))
    if "alphas" not in sec:
        return None, sig
    strength = sec.get("strength", 1.0)
    if strength == 0.0:
        raise ConfigError(
            "zero signal strength collapses all cluster gains; drop 'alphas'"
            " for an undriven run"
        )
    alphas = tuple(strength * a for a in sec["alphas"])
    if len(alphas) != clustering.k:
        raise ConfigError("one alpha per cluster required")
    try:
        return ClusterOffsets(clustering, alphas), sig
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_learning(
    doc: dict, clustering: Clustering, rng: Optional[np.random.Generator]
) -> Optional[LearningSetup]:
    if "learning" not in doc:
        return None
    sec = doc["learning"]
    m = sec["states"]
    flags_tab = np.array(sec["flags"], dtype=float)
    if flags_tab.shape != (clustering.k, m):
        raise ConfigError("flag table must be clusters x states")
    try:
        flags = CulturalFlags(flags_tab, strength=sec.get("strength", EXAMPLE_LEARNING_STRENGTH))
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
    pair = tuple(zeta.get("clusters", default_pair))
    state = zeta.get("state", 0)
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
    error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if error is not None:
        raise _invalid(error.absolute_path, error.message) from error
    _check_numbers(doc, (), _matrix_leaves(doc))

    try:
        clustering = _build_clustering(doc["clustering"])
    except ValueError as exc:
        raise ConfigError(f"clustering: {exc}") from exc
    try:
        coupling = _build_topology(doc, clustering)
    except (ValueError, RuntimeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"topology: {exc}") from exc
    try:
        offsets, sig = _build_offsets(doc, clustering)
        system = System(
            coupling=coupling, clustering=clustering, offsets=offsets, signal=sig
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    seed = doc.get("seed")
    rng = None
    if seed is not None:
        rng = np.random.default_rng(_streams(int(seed))["state"])

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

    switching = isinstance(coupling, MatrixSchedule)
    horizon = doc.get("horizon", 5000 if switching else 2000)
    if switching:
        window = doc.get("window", doc["topology"].get("window", coupling.period))
    else:
        window = doc.get("window", 1)
    theorem = doc.get(
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
        raw=doc,
    )


def load_scenario(path: str) -> Scenario:
    return build_scenario(load_config(path))


# ---------------------------------------------------------------------------
# Emitters used by the gen command.


def _adjacency(g: DirectedGraph) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(g.n)]
    for src, dst in sorted(g.edges):
        out[src].append(dst)
    return out


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
                "graph": _adjacency(example_graph_static()),
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
                "graphs": [_adjacency(g) for g in example_graphs_switching()],
            },
        )
    return base


def generated_config(
    sizes: tuple[int, ...],
    seed: int,
    m: int = 1,
    window: Optional[int] = None,
    entry_floor: float = 0.05,
    density: float = 0.3,
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
        window = m if window is None else window
        schedule = gen_switching_schedule(spec, m=m, window=window, mode=mode)
        doc["window"] = window
        doc["horizon"] = horizon if horizon is not None else 5000
        doc["theorem"] = 4
        doc["topology"] = {
            "type": "switching",
            "matrices": [matrix_doc(mat) for mat in schedule.matrices],
            "floor": schedule.floor,
        }
    else:
        g = gen_graph_with_cluster_trees(spec)
        mat = gen_common_influence_matrix(spec, g, mode=mode)
        doc["horizon"] = horizon if horizon is not None else 2000
        doc["theorem"] = 2
        doc["topology"] = {"type": "fixed", "matrix": matrix_doc(mat)}
        if spec.n < SPARSE_FROM:
            doc["topology"]["graph"] = _adjacency(g)
    return doc
