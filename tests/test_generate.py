"""Seeded instance generators: structural guarantees and determinism."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edge_set_oracle
from cclab import generate, stochastic
from cclab.config import build_scenario, example_config
from cclab.dynamics import System
from cclab.generate import (
    GeneratorSpec,
    InfeasibleError,
    _dirichlet_split,
    example_clustering,
    example_graph_static,
    example_matrix_static,
    example_quotient,
    example_schedule_switching,
    gen_common_influence_matrix,
    gen_graph_with_cluster_trees,
    gen_switching_schedule,
    resolve_quotient,
)
from cclab.graph import (
    cluster_roots,
    cluster_spanning_tree_roots,
    common_link_faults,
    support,
)
from cclab.stochastic import schedule_quotient
from cclab.verifier import check_switching, ensemble_instance

from random_instances import (
    random_clustered_tree_matrix,
    random_clustering,
    random_common_influence,
)


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(cluster_sizes=(), seed=1)
    with pytest.raises(ValueError):
        GeneratorSpec(cluster_sizes=(2, 0), seed=1)
    with pytest.raises(ValueError):
        GeneratorSpec(cluster_sizes=(2, 2), seed=1, density=1.5)
    with pytest.raises(ValueError):
        GeneratorSpec(cluster_sizes=(5, 5), seed=1, entry_floor=0.2)  # > 1/n
    with pytest.raises(ValueError):
        GeneratorSpec(cluster_sizes=(2, 2), seed=1, quotient=np.eye(3))
    spec = GeneratorSpec(cluster_sizes=(3, 2), seed=9)
    assert spec.n == 5
    assert spec.clustering().sizes == (3, 2)


def test_resolve_quotient_is_seeded_and_floored():
    spec = GeneratorSpec(cluster_sizes=(3, 2, 2), seed=17, density=0.5)
    b1 = resolve_quotient(spec)
    b2 = resolve_quotient(spec)
    assert np.array_equal(b1, b2)
    assert np.abs(b1.sum(axis=1) - 1.0).max() < 1e-12
    sizes = np.array([3, 2, 2], dtype=float)
    active = b1 > 0
    assert np.all(b1[active] >= (spec.entry_floor * sizes[None, :].repeat(3, 0))[active] - 1e-12)
    assert np.all(np.diag(b1) > 0)


def test_resolve_quotient_passes_user_matrix_through():
    q = np.array([[0.7, 0.3], [0.0, 1.0]])
    spec = GeneratorSpec(cluster_sizes=(2, 2), seed=1, quotient=q)
    out = resolve_quotient(spec)
    assert np.abs(out - q).max() < 1e-15
    out[0, 0] = 0.0  # returned copy must be detached from the recipe
    assert spec.quotient[0, 0] == 0.7


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 160), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_one_pass_split_equals_per_block_dirichlet_draws(lengths, seed):
    """Bit for bit, and the stream ends where the per-block calls leave it.
    From eight terms a block is where numpy's pairwise sum would part from
    the left-to-right sum that ``dirichlet`` takes; past 128 the pairwise
    sum recurses."""
    one, many = np.random.default_rng(seed), np.random.default_rng(seed)
    split = _dirichlet_split(one, np.array(lengths))
    want = np.concatenate([many.dirichlet(np.ones(d)) for d in lengths])
    assert split.tobytes() == want.tobytes()
    assert one.random() == many.random()


def test_generated_graph_satisfies_all_structural_hypotheses():
    for seed in (0, 5, 23, 101):
        spec = GeneratorSpec(cluster_sizes=(3, 2, 4), seed=seed, density=0.4)
        g = gen_graph_with_cluster_trees(spec)
        clus = spec.clustering()
        assert g.diagonal().all()
        assert cluster_spanning_tree_roots(g, clus) is not None
        assert not common_link_faults([g], clus)[0].any()
        assert np.array_equal(gen_graph_with_cluster_trees(spec), g)


@st.composite
def _specs(draw):
    """Specs of 1-6 clusters of 1-30 agents, at density 0, 1 or between,
    entry floors from 1e-4 to 1/n, and a drawn or a user quotient."""
    sizes = tuple(draw(st.lists(st.integers(1, 30), min_size=1, max_size=6)))
    n = sum(sizes)
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    # At the floor 1/n a block's mass, not its size, caps the in-degree.
    power = draw(st.sampled_from([-4.0, -np.log10(n)]) | st.floats(-4.0, -np.log10(n)))
    floor = min(10.0**power, 1.0 / n)
    quotient = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        k = len(sizes)
        active = (rng.random((k, k)) < 0.5) | np.eye(k, dtype=bool)
        quotient = np.where(active, 0.1 + rng.random((k, k)), 0.0)
        quotient /= quotient.sum(axis=1, keepdims=True)
    seed = draw(st.integers(0, 2**32 - 1))
    return GeneratorSpec(sizes, seed, quotient=quotient, entry_floor=floor, density=density)


def _with_stream(fn, *args):
    """``fn(*args)``, or the ``InfeasibleError`` it raised, with the stream
    its last support was drawn from."""
    streams = []

    def recording(spec, trees, masses, rng):
        streams.append(rng)
        return real(spec, trees, masses, rng)

    real = generate._support
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generate, "_support", recording)
        try:
            out = fn(*args)
        except InfeasibleError as exc:
            out = exc
    return out, streams[-1] if streams else None


@settings(max_examples=120, deadline=None)
@given(spec=_specs(), m=st.integers(2, 3))
def test_the_support_array_draws_what_the_edge_sets_drew(spec, m):
    """Both generators build the support the edge-set construction built,
    and leave their stream where it left it."""
    want = np.random.default_rng(spec._seeds["graph"])
    s = edge_set_oracle.fixed_graph(spec, want)
    got, stream = _with_stream(gen_graph_with_cluster_trees, spec)
    assert np.array_equal(got, s)
    assert stream.random() == want.random()

    want = np.random.default_rng(spec._seeds["schedule"])
    try:
        graphs = edge_set_oracle.switching_graphs(spec, m, want)
    except InfeasibleError:
        graphs = None
    # Equal mode draws nothing after the graphs.
    sched, stream = _with_stream(gen_switching_schedule, spec, m, m, "equal")
    if graphs is None:
        assert isinstance(sched, InfeasibleError)
        return
    assert len(sched.matrices) == len(graphs)
    assert all(np.array_equal(mat > 0, g) for mat, g in zip(sched.matrices, graphs))
    assert stream.random() == want.random()


def test_generated_matrix_realizes_the_quotient_on_the_graph():
    spec = GeneratorSpec(cluster_sizes=(3, 3), seed=31, density=0.6)
    g = gen_graph_with_cluster_trees(spec)
    clus = spec.clustering()
    a = gen_common_influence_matrix(spec, g)
    assert np.array_equal(a > 0, g)
    sq = schedule_quotient((a,), clus, tol=1e-12)
    assert sq.deviation <= 1e-12
    assert np.abs(sq.quotient - resolve_quotient(spec)).max() < 1e-12
    positive = a[a > 0]
    assert positive.min() >= spec.entry_floor - 1e-12


def test_equal_split_mode_divides_block_mass_evenly():
    spec = GeneratorSpec(
        cluster_sizes=(3, 3, 3), seed=0, quotient=example_quotient(), entry_floor=0.1
    )
    a = gen_common_influence_matrix(spec, example_graph_static(), mode="equal")
    assert np.abs(a - example_matrix_static()).max() < 1e-15
    with pytest.raises(ValueError):
        gen_common_influence_matrix(spec, example_graph_static(), mode="weird")


def test_infeasible_quotient_support_is_reported():
    # the graph wires cluster 2 into cluster 1 but the quotient forbids it
    q = np.array([[1.0, 0.0], [0.5, 0.5]])
    spec = GeneratorSpec(cluster_sizes=(2, 1), seed=3, quotient=q)
    g = support(3, {(v, v) for v in range(3)} | {(2, 0), (2, 1), (0, 1)})
    with pytest.raises(InfeasibleError):
        gen_common_influence_matrix(spec, g)


# Three faults of a 5-agent graph on clusters {0, 1}, {2, 3}, {4}: vertex 0
# listens to cluster 2, whose block has no mass (pair (0, 2)); vertex 1's two
# cluster-1 in-neighbours share mass 0.1 below the 0.1 floor each (pair
# (1, 1)); vertex 2 has no cluster-0 in-neighbour though the block has mass
# (pair (2, 0)). Column-major order would meet (2, 0) first.
_FAULT_QUOTIENT = [[0.9, 0.1, 0.0], [0.2, 0.8, 0.0], [0.0, 0.0, 1.0]]
_FAULT_BASE = {(v, v) for v in range(5)} | {(2, 0), (0, 3)}
_ZERO_MASS = "graph links cluster 2 into vertex 0 but the quotient gives that block zero mass"
_FLOOR = "block mass 0.1000 cannot give 2 in-neighbors of vertex 1 at least 0.1 each"
_MISSING = "vertex 2 has no in-neighbor in cluster 0, required by the quotient"


@pytest.mark.parametrize(
    "extra, random_message, equal_message",
    [
        ({(4, 0), (2, 1), (3, 1)}, _ZERO_MASS, _ZERO_MASS),
        ({(2, 1), (3, 1)}, _FLOOR, _MISSING),
        ({(2, 1)}, _MISSING, _MISSING),
    ],
)
def test_infeasible_faults_come_out_in_row_major_order(extra, random_message, equal_message):
    """The first faulty (vertex, cluster) pair in row-major order is the one
    reported, and equal mode has no floor to break."""
    spec = GeneratorSpec(
        cluster_sizes=(2, 2, 1), seed=3, quotient=np.array(_FAULT_QUOTIENT), entry_floor=0.1
    )
    g = support(5, _FAULT_BASE | extra)
    for mode, message in (("random", random_message), ("equal", equal_message)):
        with pytest.raises(InfeasibleError) as err:
            gen_common_influence_matrix(spec, g, mode)
        assert str(err.value) == message


def test_switching_schedule_structure():
    spec = GeneratorSpec(cluster_sizes=(3, 2, 4), seed=11, density=0.5)
    sched = gen_switching_schedule(spec, m=3, window=3)
    clus = spec.clustering()
    assert sched.period == 3
    assert sched.floor == spec.entry_floor
    b = None
    graphs = []
    for mat in sched.matrices:
        sq = schedule_quotient((mat,), clus, tol=1e-9)
        assert sq.deviation <= 1e-9
        q = sq.quotient
        if b is None:
            b = q
        else:
            assert np.abs(q - b).max() < 1e-12  # one static quotient across the schedule
        g = mat > 0
        graphs.append(g)
        assert None in cluster_roots(g, clus), "an individual graph must miss some tree"
        positive = mat[mat > 0]
        assert positive.min() >= spec.entry_floor - 1e-12
        assert np.diag(mat).min() >= spec.entry_floor - 1e-12
    assert cluster_spanning_tree_roots(np.logical_or.reduce(graphs), clus) is not None


def test_switching_schedule_every_window_union_has_trees():
    spec = GeneratorSpec(cluster_sizes=(2, 2), seed=8)
    sched = gen_switching_schedule(spec, m=2, window=2)
    clus = spec.clustering()
    graphs = [m > 0 for m in sched.matrices]
    for shift in range(2):
        window = [graphs[(shift + i) % 2] for i in range(2)]
        assert cluster_spanning_tree_roots(np.logical_or.reduce(window), clus) is not None


def test_switching_schedule_is_deterministic():
    spec = GeneratorSpec(cluster_sizes=(3, 3), seed=77, density=0.7)
    s1 = gen_switching_schedule(spec, m=2, window=2)
    s2 = gen_switching_schedule(spec, m=2, window=2)
    for a, b in zip(s1.matrices, s2.matrices):
        assert np.array_equal(a, b)


def test_switching_schedule_argument_validation():
    spec = GeneratorSpec(cluster_sizes=(2, 2), seed=1)
    with pytest.raises(ValueError):
        gen_switching_schedule(spec, m=0, window=1)
    with pytest.raises(ValueError):
        gen_switching_schedule(spec, m=3, window=2)
    for m in (1, 2):
        with pytest.raises(ValueError, match="split mode"):
            gen_switching_schedule(spec, m=m, window=m, mode="bogus")


def test_switching_single_matrix_reduces_to_the_static_generator():
    spec = GeneratorSpec(cluster_sizes=(2, 3), seed=21)
    sched = gen_switching_schedule(spec, m=1, window=1)
    assert sched.period == 1
    clus = spec.clustering()
    assert cluster_spanning_tree_roots(sched.matrices[0] > 0, clus) is not None


def _validations(monkeypatch) -> list:
    """Shapes of the arrays handed to ``validate`` from here on, by any
    module of the package."""
    shapes = []
    real = stochastic.validate

    def counted(raw, *args, **kwargs):
        shapes.append(np.shape(raw))
        return real(raw, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("cclab.") and getattr(module, "validate", None) is real:
            monkeypatch.setattr(module, "validate", counted)
    return shapes


@pytest.mark.parametrize("m", [1, 2, 3])
def test_the_schedule_validates_each_generated_matrix_once(m, monkeypatch):
    """The generator hands its matrices over as built, and the schedule
    validates each of them, once."""
    spec = GeneratorSpec(cluster_sizes=(3, 4, 2, 5), seed=7, density=0.5)
    shapes = _validations(monkeypatch)
    gen_switching_schedule(spec, m=m, window=m)
    assert shapes.count((spec.n, spec.n)) == m


@pytest.mark.parametrize("theorem", [2, 4])
def test_an_ensemble_instance_validates_each_coupling_matrix_once(theorem, monkeypatch):
    """Building and checking an instance validates each of its coupling
    matrices once; the K-by-K quotient checks are the other calls. On
    singleton clusters the quotient is n-by-n too, so those instances
    cannot tell the two apart and are passed over."""
    shapes = _validations(monkeypatch)
    told = 0
    for seed in range(12):
        shapes.clear()
        system = ensemble_instance(theorem, seed).system
        if system.clustering.k == system.n:
            continue
        assert shapes.count((system.n, system.n)) == system.coupling.period
        told += 1
    assert told >= 10


def test_switching_needs_two_droppable_tree_edges():
    """A fully coupled user quotient leaves no cluster without cross in-links,
    so rootlessness cannot be arranged and the request must be refused."""
    q = np.full((3, 3), 1.0 / 3.0)
    spec = GeneratorSpec(cluster_sizes=(1, 1, 2), seed=5, quotient=q)
    with pytest.raises(InfeasibleError, match="tree edges"):
        gen_switching_schedule(spec, m=2, window=2)


def test_example_fixtures_are_consistent():
    static, switching = (build_scenario(example_config(which)).system for which in "AB")
    clus = example_clustering()
    assert not static.is_switching
    assert switching.is_switching
    assert np.abs(schedule_quotient(static.coupling.matrices, clus).quotient - example_quotient()).max() < 1e-15
    sched = example_schedule_switching()
    report = check_switching(System(coupling=sched, clustering=clus))
    passed = {c.name: c.passed for c in report.conditions}
    assert passed["entry-floor-b1"] and passed["diagonal-floor-b2"]
    assert sched.floor == 0.1
    for mat in sched.matrices:
        assert np.abs(schedule_quotient((mat,), clus).quotient - example_quotient()).max() < 1e-15


def test_random_helpers_produce_valid_objects():
    rng = np.random.default_rng(63)
    for _ in range(15):
        clus = random_clustering(rng)
        assert sum(clus.sizes) == clus.n
        a = random_common_influence(rng, clus)
        assert schedule_quotient((a,), clus, tol=1e-12).deviation <= 1e-12
        t = random_clustered_tree_matrix(rng, clus)
        g = t > 0
        assert g.diagonal().all()
        assert cluster_spanning_tree_roots(g, clus) is not None
