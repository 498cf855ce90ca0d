"""Config validation, scenario materialization, and reproducibility."""

import copy
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab import config as config_module
from cclab.config import (
    SPARSE_FROM,
    ConfigError,
    build_scenario,
    emit_config,
    example_config,
    generated_config,
    load_config,
)
from cclab.dynamics import simulate
from cclab.generate import GeneratorSpec, gen_switching_schedule
from cclab.stochastic import MatrixSchedule, validate


def test_example_a_materializes_a_fixed_driven_scenario():
    scenario = build_scenario(example_config("A"))
    assert scenario.label == "paper-example-A"
    assert scenario.theorem == 2
    assert scenario.horizon == 2000
    assert not scenario.system.is_switching
    assert scenario.system.driven()
    assert scenario.x0.shape == (9,)
    assert scenario.learning is not None
    assert scenario.learning.flags.strength == 0.01
    assert scenario.learning.zeta_clusters == (1, 2)
    assert scenario.learning.zeta_state == 0


def test_example_b_materializes_a_switching_scenario():
    scenario = build_scenario(example_config("B"))
    assert scenario.label == "paper-example-B"
    assert scenario.theorem == 4
    assert scenario.horizon == 5000
    assert scenario.window == 3
    assert isinstance(scenario.system.coupling, MatrixSchedule)
    assert scenario.system.coupling.period == 3
    with pytest.raises(ConfigError):
        example_config("C")


def test_seeded_initial_state_is_reproducible():
    a = build_scenario(example_config("A"))
    b = build_scenario(example_config("A"))
    assert np.array_equal(a.x0, b.x0)
    assert np.array_equal(a.learning.profile0.beliefs, b.learning.profile0.beliefs)
    other = dict(example_config("A"), seed=99)
    assert not np.array_equal(build_scenario(other).x0, a.x0)


def test_the_digest_hashes_the_file_bytes_then_the_overrides(tmp_path):
    path = tmp_path / "a.json"
    emit_config(example_config("A"), str(path))
    data = path.read_bytes()
    doc, digest = load_config(str(path))
    assert digest == hashlib.sha256(data).hexdigest()
    assert load_config(str(path), {}) == (doc, digest)
    edited, moved = load_config(str(path), {"seed": 7, "horizon": 50})
    assert edited == dict(doc, seed=7, horizon=50)
    assert moved == hashlib.sha256(data + b'{"horizon":50,"seed":7}').hexdigest()
    path.write_bytes(data.replace(b"\n", b"\r\n"))
    same_doc, other = load_config(str(path))
    assert same_doc == doc and other != digest


def test_emit_and_load_round_trip(tmp_path):
    doc = example_config("B")
    path = tmp_path / "b.json"
    emit_config(doc, str(path))
    loaded, _ = load_config(str(path))
    assert loaded == doc
    assert build_scenario(loaded).label == "paper-example-B"


def test_load_config_failures(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    bad.write_text('{"seed": 1' + "0" * 5000 + "}")
    with pytest.raises(ConfigError, match="not valid JSON: Exceeds the limit"):
        load_config(str(bad))


def test_schema_violations_point_at_the_offending_path():
    with pytest.raises(ConfigError, match="clustering"):
        build_scenario({"version": 1, "topology": {"type": "fixed", "matrix": [[1.0]]}})
    doc = example_config("A")
    doc["signal"]["period"] = 0
    with pytest.raises(ConfigError, match="signal/period"):
        build_scenario(doc)
    doc = example_config("A")
    doc["topology"] = {"type": "mystery"}
    with pytest.raises(ConfigError):
        build_scenario(doc)


def test_semantic_failures_are_config_errors():
    doc = example_config("A")
    doc["topology"]["matrix"][0][0] = 0.9  # row no longer sums to one
    with pytest.raises(ConfigError):
        build_scenario(doc)

    doc = example_config("A")
    doc["initial_state"] = [0.0] * 4
    with pytest.raises(ConfigError, match="initial state"):
        build_scenario(doc)

    doc = example_config("A")
    del doc["seed"]
    with pytest.raises(ConfigError, match="seed required"):
        build_scenario(doc)


def test_equal_and_zero_gains_load():
    """Distinct gains are a hypothesis of the consensus claims, checked by
    the ``distinct-inputs`` row, so equal gains load as given and a zero
    strength makes every gain zero."""
    doc = example_config("A")
    doc["signal"]["alphas"] = [1.0, 1.0, 0.5]
    assert build_scenario(doc).system.alphas == (1.0, 1.0, 0.5)
    doc["signal"]["strength"] = 0.0
    system = build_scenario(doc).system
    assert system.driven() and system.alphas == (0.0, 0.0, 0.0)


def test_learning_section_validation():
    doc = example_config("A")
    doc["learning"]["flags"] = [[1.0, -1.0], [0.0, 0.0]]  # wrong row count
    with pytest.raises(ConfigError, match="flag table"):
        build_scenario(doc)

    doc = example_config("A")
    doc["learning"]["flags"] = [[1.0, 0.0], [0.0, 0.0], [-1.0, 1.0]]
    with pytest.raises(ConfigError):
        build_scenario(doc)  # first row does not sum to zero

    doc = example_config("A")
    doc["learning"]["zeta"] = {"clusters": [1, 1]}
    with pytest.raises(ConfigError, match="zeta"):
        build_scenario(doc)

    doc = example_config("A")
    doc["learning"]["zeta"] = {"clusters": [0, 2], "state": 5}
    with pytest.raises(ConfigError, match="zeta state"):
        build_scenario(doc)


def test_explicit_initial_state_and_beliefs():
    doc = example_config("A")
    doc["initial_state"] = list(np.linspace(-1, 1, 9))
    doc["learning"]["initial"] = [[0.5, 0.5]] * 9
    scenario = build_scenario(doc)
    assert scenario.x0[0] == -1.0
    assert np.all(scenario.learning.profile0.beliefs == 0.5)


def test_uniform_initial_beliefs_do_not_need_a_seed():
    doc = example_config("A")
    doc["learning"]["initial"] = "uniform"
    doc["initial_state"] = [0.0] * 9
    del doc["seed"]
    scenario = build_scenario(doc)
    assert np.all(scenario.learning.profile0.beliefs == 0.5)


def test_theorem_defaults_follow_topology_and_signal():
    doc = example_config("A")
    del doc["theorem"]
    assert build_scenario(doc).theorem == 2
    del doc["signal"]
    del doc["learning"]
    assert build_scenario(doc).theorem == 1
    doc_b = example_config("B")
    del doc_b["theorem"]
    assert build_scenario(doc_b).theorem == 4
    del doc_b["signal"]
    del doc_b["learning"]
    assert build_scenario(doc_b).theorem == 3


def test_thresholds_override():
    doc = example_config("A")
    doc["thresholds"] = {"separation": 0.05, "sync_scale": 1e-6}
    scenario = build_scenario(doc)
    assert scenario.thresholds.separation == 0.05
    assert scenario.thresholds.sync_scale == 1e-6
    assert scenario.thresholds.periodic == 1e-8  # untouched default


def test_generator_topology_builds_from_seed():
    doc = {
        "version": 1,
        "label": "gen",
        "seed": 31,
        "clustering": {"sizes": [3, 2]},
        "topology": {"type": "generator", "density": 0.5},
        "signal": {"period": 2, "free_values": [-1.0], "alphas": [1.0, 0.25]},
    }
    scenario = build_scenario(doc)
    (a,) = scenario.system.coupling.matrices
    assert a.shape == (5, 5)
    assert np.array_equal(build_scenario(doc).system.coupling.matrices[0], a)


@pytest.mark.parametrize("recipe", [False, True], ids=["inline", "generator"])
@pytest.mark.parametrize("layout", ["sizes", "clusters"])
def test_a_config_load_checks_its_agent_count_once(recipe, layout, monkeypatch):
    calls = []
    check = config_module._check_agent_count
    monkeypatch.setattr(
        config_module, "_check_agent_count", lambda doc, n: calls.append(n) or check(doc, n)
    )
    doc = example_config("A")
    if recipe:
        doc["topology"] = {"type": "generator", "density": 0.5}
    if layout == "clusters":
        labels = build_scenario(doc).system.clustering.clusters
        doc["clustering"] = {"clusters": [list(c) for c in labels]}
        calls.clear()
    try:
        build_scenario(doc)
    except ConfigError as exc:  # a generator recipe needs the sizes layout
        assert recipe and layout == "clusters" and "contiguous" in str(exc)
    assert calls == [9]


def test_generator_topology_requires_contiguous_sizes():
    doc = {
        "version": 1,
        "seed": 3,
        "clustering": {"clusters": [[0, 2], [1, 3]]},
        "topology": {"type": "generator"},
    }
    with pytest.raises(ConfigError, match="contiguous"):
        build_scenario(doc)


def test_generated_config_inlines_the_instance():
    doc = generated_config((3, 2), seed=7)
    scenario = build_scenario(doc)
    assert doc["topology"]["type"] == "fixed"
    assert len(doc["topology"]["matrix"]) == 5
    assert scenario.theorem == 2
    assert generated_config((3, 2), seed=7) == doc

    sw = generated_config((2, 2), seed=5, m=2, window=2)
    assert sw["topology"]["type"] == "switching"
    assert len(sw["topology"]["matrices"]) == 2
    scen = build_scenario(sw)
    assert scen.window == 2
    assert scen.theorem == 4
    assert scen.horizon == 5000


@pytest.mark.parametrize(
    "m, digest",
    [
        (1, "bda4f04ba26bdc3223c936f327054177b97b814b0b74cc477624dd0bdd9ab63d"),
        (3, "5874a39a1dcf3e8a04e0fa677006b92c92891b8eb5f6129ef8bf538ba8c729a4"),
    ],
    ids=["1", "3"],
)
def test_generated_config_bytes_are_pinned(m, digest):
    """Guards the generator's random stream: any change to the order of the
    draws or to the edges they pick changes the emitted document."""
    doc = generated_config((3, 4, 2, 5), seed=7, m=m, density=0.5)
    assert hashlib.sha256(emit_config(doc).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "m, digest",
    [
        (1, "e7c7cdaa02215e18386b3d79daaf11d75222465a9d75a547f51c7f80054123cc"),
        (3, "07b67c1a3649e0ca478808c3f27f1da91f5dcefe2eed0eaf78315ca43659dd5d"),
    ],
    ids=["1", "3"],
)
def test_generated_config_bytes_are_pinned_at_a_thousand_agents(m, digest):
    """Guards the cover draws on blocks of hundreds of sources, where the
    density rather than the block mass sets each row's extra links."""
    doc = generated_config((334, 334, 334), seed=1, m=m, density=0.01, entry_floor=1e-4)
    assert hashlib.sha256(emit_config(doc).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "m, digest",
    [
        (1, "97cf77055fe04a69808e32788c658dd757dcb13afa08281ea3e3c99ed9c45f3a"),
        (3, "4c4092dce8e255d27441d1cf6a3bbe9fed6dfa26ac84c513344c55c218d8ee56"),
    ],
    ids=["1", "3"],
)
def test_generated_config_bytes_are_pinned_in_triplet_form(m, digest):
    """At the cut-off the matrices are written as triplets and the fixed
    topology drops its support graph; one agent fewer keeps the rows."""
    assert SPARSE_FROM == 100
    doc = generated_config((50, 50), seed=7, m=m, density=0.05, entry_floor=0.001)
    top = doc["topology"]
    for mat in top.get("matrices", [top.get("matrix")]):
        assert sorted(mat) == ["cols", "n", "rows", "vals"]
    assert "graph" not in top and "graphs" not in top
    assert hashlib.sha256(emit_config(doc).encode()).hexdigest() == digest

    top = generated_config((50, 49), seed=7, m=m, density=0.05, entry_floor=0.001)["topology"]
    assert all(isinstance(mat, list) for mat in top.get("matrices", [top.get("matrix")]))
    assert ("graph" in top) == (m == 1)


def _couplings(scenario):
    return [a.tobytes() for a in scenario.system.coupling.matrices]


@pytest.mark.parametrize("m", [1, 3])
def test_triplet_configs_rebuild_the_generated_matrices(m):
    """Above the cut-off the triplets carry the generator's realized
    matrices bit for bit, and load to the system their rows give."""
    sizes, seed = (60, 50, 40), 11
    doc = json.loads(emit_config(generated_config(sizes, seed=seed, m=m, density=0.1, entry_floor=0.001)))
    spec = GeneratorSpec(cluster_sizes=sizes, seed=seed, entry_floor=0.001, density=0.1)
    realized = gen_switching_schedule(spec, m=m, window=m).matrices
    top = doc["topology"]
    triplets = top.get("matrices", [top.get("matrix")])
    assert len(triplets) == len(realized)
    for t, a in zip(triplets, realized):
        carried = np.zeros((t["n"], t["n"]))
        carried[t["rows"], t["cols"]] = t["vals"]
        assert carried.tobytes() == a.tobytes()

    rows = [a.tolist() for a in realized]
    rows_doc = copy.deepcopy(doc)
    rows_doc["topology"].update({"matrices": rows} if m > 1 else {"matrix": rows[0]})
    assert _couplings(build_scenario(doc)) == _couplings(build_scenario(rows_doc))


@pytest.mark.parametrize("form", ["triplets", "rows"])
def test_a_loaded_coupling_is_validated_once(form):
    """The schedule validates each parsed matrix, and nothing else does: on
    the three 40-agent clusters a second validation moves the last bits."""
    doc = generated_config((40, 40, 40), seed=1, entry_floor=0.005)
    t = doc["topology"]["matrix"]
    parsed = np.zeros((t["n"], t["n"]))
    parsed[t["rows"], t["cols"]] = t["vals"]
    if form == "rows":
        doc["topology"]["matrix"] = parsed.tolist()
    (loaded,) = build_scenario(doc).system.coupling.matrices
    once = validate(parsed)
    assert loaded.tobytes() == once.tobytes()
    assert validate(once).tobytes() != once.tobytes()


def _shuffled_triplets(a, rng):
    rows, cols = np.nonzero(a)
    # A few explicit zeros are allowed beside the positive entries.
    zr, zc = np.nonzero(a == 0)
    pick = rng.permutation(zr.size)[: rng.integers(0, 3)]
    rows, cols = np.concatenate([rows, zr[pick]]), np.concatenate([cols, zc[pick]])
    order = rng.permutation(rows.size)
    rows, cols = rows[order], cols[order]
    return {
        "n": a.shape[0],
        "rows": rows.tolist(),
        "cols": cols.tolist(),
        "vals": a[rows, cols].tolist(),
    }


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3]))
def test_triplet_and_row_forms_build_the_same_system(seed, m):
    rng = np.random.default_rng(seed)
    sizes = [int(s) for s in rng.integers(1, 6, size=2)]
    n = sum(sizes)
    density = rng.uniform(0.0, 1.0)
    mats = []
    for _ in range(m):
        w = rng.random((n, n)) * (rng.random((n, n)) < density)
        w[np.diag_indices(n)] += rng.uniform(0.1, 1.0, n)
        mats.append(w / w.sum(axis=1, keepdims=True))

    def scenario(form):
        if m == 1:
            topology = {"type": "fixed", "matrix": form(mats[0])}
        else:
            topology = {"type": "switching", "matrices": [form(a) for a in mats]}
        doc = {
            "version": 1,
            "seed": seed,
            "clustering": {"sizes": sizes},
            "topology": topology,
            "signal": {"period": 2, "free_values": [-1.0], "alphas": [1.0, -0.5]},
        }
        return build_scenario(json.loads(json.dumps(doc)))

    dense = scenario(lambda a: a.tolist())
    sparse = scenario(lambda a: _shuffled_triplets(a, rng))
    assert _couplings(sparse) == _couplings(dense)
    assert sparse.x0.tobytes() == dense.x0.tobytes()
    run = simulate(sparse.system, sparse.x0, 40).states
    assert run.tobytes() == simulate(dense.system, dense.x0, 40).states.tobytes()


def test_switching_config_defaults_window_to_the_period():
    doc = example_config("B")
    del doc["window"]
    scenario = build_scenario(doc)
    assert scenario.window == 3


_GENERATOR = {
    "version": 1,
    "seed": 3,
    "clustering": {"sizes": [2, 2]},
    "topology": {"type": "generator", "quotient": [[0.5, 0.5], [0.5, 0.5]]},
}
_SWITCHING_GENERATOR = {
    "version": 1,
    "seed": 3,
    "clustering": {"sizes": [2, 2]},
    "topology": {"type": "switching-generator", "m": 2, "quotient": [[0.5, 0.5], [0.5, 0.5]]},
}


def _base(name):
    if name == "A-initial":
        doc = example_config("A")
        doc["learning"]["initial"] = [[0.5, 0.5] for _ in range(9)]
        return doc
    if name in ("A", "B"):
        return example_config(name)
    return copy.deepcopy({"G": _GENERATOR, "SG": _SWITCHING_GENERATOR}[name])


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# The messages JSON Schema gave, one fault per document; a bad quotient
# entry is named by its own path.
@pytest.mark.parametrize(
    "base, path, value, message",
    [
        *[
            case
            for value in ("x", True, None)
            for case in (
                ("A", ("topology", "matrix", 0, 1), value,
                 f"config invalid at topology/matrix/0/1: {value!r} is not of type 'number'"),
                ("B", ("topology", "matrices", 1, 2, 0), value,
                 f"config invalid at topology/matrices/1/2/0: {value!r} is not of type 'number'"),
                ("G", ("topology", "quotient", 1, 0), value,
                 f"config invalid at topology/quotient/1/0: {value!r} is not of type 'number'"),
                ("SG", ("topology", "quotient", 0, 1), value,
                 f"config invalid at topology/quotient/0/1: {value!r} is not of type 'number'"),
                ("A", ("learning", "flags", 2, 1), value,
                 f"config invalid at learning/flags/2/1: {value!r} is not of type 'number'"),
                ("A-initial", ("learning", "initial", 1, 0), value,
                 f"config invalid at learning/initial/1/0: {value!r} is not of type 'number'"),
            )
        ],
        ("A", ("topology", "graph", 3, 0), -1,
         "config invalid at topology/graph/3/0: -1 is less than the minimum of 0"),
        ("A", ("topology", "graph", 3, 0), "x",
         "config invalid at topology/graph/3/0: 'x' is not of type 'integer'"),
        ("A", ("topology", "graph", 3, 0), 1.5,
         "config invalid at topology/graph/3/0: 1.5 is not of type 'integer'"),
        ("B", ("topology", "graphs", 1, 2, 0), -1,
         "config invalid at topology/graphs/1/2/0: -1 is less than the minimum of 0"),
        ("B", ("topology", "graphs", 1, 2, 0), "x",
         "config invalid at topology/graphs/1/2/0: 'x' is not of type 'integer'"),
        ("A", ("topology", "matrix", 0), [],
         "config invalid at topology/matrix/0: [] should be non-empty"),
        ("A", ("topology", "graph", 0), 3,
         "config invalid at topology/graph/0: 3 is not of type 'array'"),
        ("A", ("learning", "initial"), [[]],
         "config invalid at learning/initial/0: [] should be non-empty"),
    ],
)
def test_bad_matrix_entries_keep_the_schema_messages(base, path, value, message):
    with pytest.raises(ConfigError) as info:
        build_scenario(_set(_base(base), path, value))
    assert str(info.value) == message


def _drop(path):
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return doc

    return edit


@pytest.mark.parametrize(
    "base, edit, message",
    [
        ("A", lambda d: _set(d, ("signal", "perod"), 2),
         "signal: Additional properties are not allowed ('perod' was unexpected)"),
        ("A", _drop(("signal", "period")), "signal: 'period' is a required property"),
        ("A", lambda d: _set(d, ("version",), 2), "version: 2 is not one of [1]"),
        ("A", lambda d: _set(d, ("theorem",), True), "theorem: True is not one of [1, 2, 3, 4]"),
        ("A", lambda d: _set(d, ("horizon",), 0), "horizon: 0 is less than the minimum of 1"),
        ("A", lambda d: _set(d, ("horizon",), 2.5), "horizon: 2.5 is not of type 'integer'"),
        ("A", lambda d: _set(d, ("horizon",), 10**400), f"horizon: {10**400} is not a finite number"),
        ("A", lambda d: _set(d, ("label",), 7), "label: 7 is not of type 'string'"),
        ("A", lambda d: _set(d, ("thresholds",), {"separation": 0}),
         "thresholds/separation: 0 is less than or equal to the minimum of 0"),
        ("A", lambda d: _set(d, ("learning", "zeta"), {"clusters": [1, 2, 0]}),
         "learning/zeta/clusters: [1, 2, 0] is too long"),
        ("A", lambda d: _set(d, ("initial_state",), "zero"),
         "initial_state: 'zero' is not one of ['random'] or an array"),
        ("A", lambda d: _set(d, ("clustering",), {}),
         "clustering: exactly one of 'sizes' and 'clusters' is required"),
        ("G", lambda d: _set(d, ("topology", "density"), 1.5),
         "topology/density: 1.5 is greater than the maximum of 1"),
        ("SG", _drop(("topology", "m")), "topology: 'm' is a required property"),
    ],
    ids=["unexpected", "required", "version", "theorem-bool", "minimum", "integer", "huge",
         "string", "exclusive-minimum", "too-long", "name-or-array", "clustering", "maximum",
         "recipe-required"],
)
def test_a_bad_field_is_named_by_its_path(base, edit, message):
    with pytest.raises(ConfigError) as info:
        build_scenario(edit(_base(base)))
    assert str(info.value) == f"config invalid at {message}"


def test_integral_floats_count_as_integers_in_graphs():
    doc = example_config("A")
    doc["topology"]["graph"][3] = [float(v) for v in doc["topology"]["graph"][3]]
    build_scenario(doc)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("topology", "matrix", 0, 1), float("nan"),
         "config invalid at topology/matrix/0/1: nan is not a finite number"),
        (("topology", "matrix", 0, 1), 10**400,
         f"config invalid at topology/matrix/0/1: {10**400!r} is not a finite number"),
        (("learning", "flags", 0, 0), float("-inf"),
         "config invalid at learning/flags/0/0: -inf is not a finite number"),
        (("signal", "strength"), float("inf"),
         "config invalid at signal/strength: inf is not a finite number"),
        (("learning", "slack"), float("nan"),
         "config invalid at learning/slack: nan is not a finite number"),
    ],
    ids=["matrix-nan", "matrix-huge-int", "flags-minus-inf", "strength-inf", "slack-nan"],
)
def test_non_finite_numbers_are_rejected(path, value, message):
    with pytest.raises(ConfigError) as info:
        build_scenario(_set(example_config("A"), path, value))
    assert str(info.value) == message


def test_graph_must_match_the_matrix_support():
    doc = example_config("A")
    doc["topology"]["graph"][2] = [2, 1, 0, 1]  # order and repeats do not matter
    build_scenario(doc)
    doc["topology"]["graph"][2] = [0, 2]
    with pytest.raises(ConfigError) as info:
        build_scenario(doc)
    assert str(info.value) == (
        "config invalid at topology/graph/2: lists [0, 2],"
        " but column 2 of the matrix is positive at [0, 1, 2]"
    )
    doc["topology"]["graph"] = [[0]]
    with pytest.raises(ConfigError, match="topology/graph: 1 adjacency lists for 9 agents"):
        build_scenario(doc)

    doc = example_config("B")
    del doc["topology"]["graphs"][2]
    with pytest.raises(ConfigError, match="topology/graphs: 2 graphs for 3 matrices"):
        build_scenario(doc)
    doc = example_config("B")
    doc["topology"]["graphs"][1][4].append(99)
    with pytest.raises(ConfigError, match="at topology/graphs/1/4: lists"):
        build_scenario(doc)


def _paths(node, path=()):
    """The path of every value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*path, key)
        yield from _paths(child, (*path, key))


# Small scalars only: a size, a vertex or a step count is used as a loop
# bound or an array length once it is accepted.
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(-20, 20)
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), 2.0])
    | st.text(max_size=3)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Fields where 10**30 is rejected before anything loops over it or sizes an
# array by it. ``topology.m`` is not among them: m matrices are generated.
_HUGE_OK = {"version", "theorem", "sizes", "clusters", "state", "states", "period", "n", "rows", "cols"}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_single_fault_builds_or_is_a_config_error(data):
    doc = _base(data.draw(st.sampled_from(["A", "A-initial", "B", "G", "SG"])))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        field = [key for key in path if isinstance(key, str)][-1]
        values = _JSON | st.just(10**30) if field in _HUGE_OK else _JSON
        parent[path[-1]] = data.draw(values)
    try:
        build_scenario(doc)
    except ConfigError:
        pass
