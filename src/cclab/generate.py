"""Seeded generation of compliant instances, plus the two bundled examples.

The generator works top-down: pick (or accept) a K-by-K quotient matrix,
realize a support graph whose cross-cluster links follow the quotient's
sparsity pattern with the all-or-nothing coverage the common-link property
demands, then spread each block mass over the in-neighbors so the full matrix
has inter-cluster common influence exactly.  Everything is re-verified post
hoc rather than assumed.

Randomness is consumed from child streams of a single seed, so any generated
object is a pure function of its spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph import Clustering, cluster_spanning_tree_roots, common_link_faults, support
from .signals import PeriodicInput
from .stochastic import MatrixSchedule, schedule_quotient, validate


class InfeasibleError(ValueError):
    """The requested structure cannot be realized."""


def check_entry_floor(entry_floor: float, n: int) -> None:
    """Raise ``ValueError`` unless ``0 < entry_floor <= 1/n``: a larger floor
    leaves no stochastic row on ``n`` agents that honors it."""
    if not 0.0 < entry_floor <= 1.0 / n:
        raise ValueError(f"entry floor must lie in (0, 1/n] = (0, {1.0 / n:.4f}]")


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for seeded instance generation.

    ``entry_floor`` bounds every generated positive entry from below (random
    split mode); it must not exceed ``1/n`` or no stochastic row could honor
    it.  ``density`` drives how many optional blocks and extra edges appear:
    0 gives the minimal tree construction, 1 the complete graph.

    A spec spawns its seed streams, builds its clustering and resolves its
    quotient once, at construction; every generator reads those.
    """

    cluster_sizes: tuple[int, ...]
    seed: int
    quotient: Optional[np.ndarray] = None
    entry_floor: float = 0.05
    density: float = 0.3

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.cluster_sizes)
        object.__setattr__(self, "cluster_sizes", sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("cluster sizes must be positive")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must lie in [0, 1]")
        check_entry_floor(self.entry_floor, self.n)
        if self.quotient is not None:
            q = validate(np.asarray(self.quotient, dtype=float))
            if q.shape[0] != len(sizes):
                raise ValueError("quotient size does not match the cluster count")
            q.setflags(write=False)
            object.__setattr__(self, "quotient", q)
        object.__setattr__(self, "_clustering", Clustering.from_sizes(sizes))
        object.__setattr__(self, "_seeds", _streams(self.seed))
        b = self.quotient if self.quotient is not None else _draw_quotient(self)
        object.__setattr__(self, "_quotient", b)

    @property
    def n(self) -> int:
        return sum(self.cluster_sizes)

    def clustering(self) -> Clustering:
        return self._clustering


def _streams(seed: int) -> dict[str, np.random.SeedSequence]:
    children = np.random.SeedSequence(seed).spawn(5)
    return dict(zip(("quotient", "graph", "matrix", "schedule", "state"), children))


def resolve_quotient(spec: GeneratorSpec) -> np.ndarray:
    """The recipe's quotient, or a seeded random one on a density-driven
    support, as a copy the caller may edit.

    Generated masses satisfy ``B[p, q] >= entry_floor * |C_q|`` on every
    active block so that any later in-neighbor pattern can be floored.
    """
    return spec._quotient.copy()


def _draw_quotient(spec: GeneratorSpec) -> np.ndarray:
    """The seeded random quotient of :func:`resolve_quotient`, read-only."""
    rng = np.random.default_rng(spec._seeds["quotient"])
    k = len(spec.cluster_sizes)
    sizes = np.array(spec.cluster_sizes, dtype=float)
    support = rng.random((k, k)) < spec.density
    np.fill_diagonal(support, True)
    b = np.zeros((k, k))
    e = spec.entry_floor
    for p in range(k):
        act = np.nonzero(support[p])[0]
        base = e * sizes[act]
        b[p, act] = base + (1.0 - base.sum()) * rng.dirichlet(np.ones(act.size))
    b = validate(b)
    b.setflags(write=False)
    return b


def _random_tree(members: Sequence[int], rng: np.random.Generator) -> list[tuple[int, int]]:
    """Edges ``(parent, child)`` of a random arborescence spanning ``members``."""
    order = [members[i] for i in rng.permutation(len(members))]
    return [(order[int(rng.integers(idx))], order[idx]) for idx in range(1, len(order))]


def _cover_block(row: np.ndarray, cap: int, density: float, rng: np.random.Generator) -> None:
    """Cover one target from one block's sources, whose links to it are
    ``row``: link a random source if none is linked, then draw one uniform
    per unlinked source, in ascending order, and link the first that fall
    below ``density``, up to ``cap`` links in all."""
    free = (~row).nonzero()[0]
    if free.size == row.size:
        pick = int(rng.integers(row.size))
        row[pick] = True
        free = free[free != pick]
    room = cap - (row.size - free.size)
    if room <= 0 or density == 0.0:
        return
    picks = free[rng.random(free.size) < density]
    row[picks[:room]] = True


def _support(
    spec: GeneratorSpec,
    trees: Sequence[Sequence[tuple[int, int]]],
    masses: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Support with self-links and the ``trees``' links ``(parent, child)``,
    then every block of positive ``masses[p, q]`` covered, row-major, each
    target of ``C_p`` in turn; no target takes more in-neighbors from
    ``C_q`` than the entry floor allows for the block's mass."""
    s = np.eye(spec.n, dtype=bool)
    links = np.array([e for tree in trees for e in tree], dtype=np.intp).reshape(-1, 2)
    s[links[:, 1], links[:, 0]] = True
    # A spec's clusters are contiguous runs of vertices, so a block is a view.
    sizes = spec.cluster_sizes
    runs = [slice(end - size, end) for end, size in zip(np.cumsum(sizes).tolist(), sizes)]
    for p, q in np.argwhere(masses > 0).tolist():
        # min first: a tiny floor would overflow int().
        cap = int(min(float(masses[p, q]) / spec.entry_floor, sizes[q]))
        for row in s[runs[p], runs[q]]:
            _cover_block(row, cap, spec.density, rng)
    return s


def gen_graph_with_cluster_trees(spec: GeneratorSpec) -> np.ndarray:
    """Seeded support with self-links, cluster spanning trees, and the
    common-link property, with extra edges per ``density``.

    Every cluster gets an internal random arborescence (its head is then a
    root), every active quotient block gets full in-coverage, and extra
    edges are confined to active blocks so the all-or-nothing rule survives.
    """
    clus = spec.clustering()
    rng = np.random.default_rng(spec._seeds["graph"])
    trees = [_random_tree(members, rng) for members in clus.clusters]
    s = _support(spec, trees, spec._quotient, rng)
    if cluster_spanning_tree_roots(s, clus) is None or common_link_faults([s], clus)[0].any():
        raise RuntimeError("generated graph failed its own structural checks")
    return s


def _dirichlet_split(rng: np.random.Generator, lengths: np.ndarray) -> np.ndarray:
    """The draws of ``rng.dirichlet(np.ones(d))`` for each ``d`` in
    ``lengths``, concatenated, bit for bit and leaving ``rng`` where those
    calls leave it.

    With every alpha 1, numpy's ``dirichlet`` draws ``d`` standard
    exponentials and multiplies each by the reciprocal of their sum taken
    left to right. A cumulative sum along the rows of a zero-padded table,
    one row per block, adds in that order.
    """
    e = rng.standard_exponential(int(lengths.sum()))
    block = np.repeat(np.arange(lengths.size), lengths)
    table = np.zeros((lengths.size, lengths.max(initial=0)))
    table[block, np.arange(e.size) - (np.cumsum(lengths) - lengths)[block]] = e
    return e * (1.0 / np.cumsum(table, axis=1)[:, -1])[block]


def _matrix_on_graph(
    b: np.ndarray,
    clus: Clustering,
    s: np.ndarray,
    entry_floor: float,
    mode: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Spread each block mass ``b[p, q]`` over the in-neighbors in ``C_q``
    of every vertex of ``C_p``. Random mode splits each block by its own
    Dirichlet draw, block by block in row-major (vertex, cluster) order,
    each over its in-neighbors in ascending order."""
    if mode not in ("random", "equal"):
        raise ValueError(f"unknown split mode {mode!r}")
    labels = clus.labels()
    # counts[i, q]: in-neighbors of vertex i in C_q; mass[i, q] their block mass.
    counts = clus.sums(s)
    mass = b[labels]
    # A block with mass needs an in-neighbor; a block without admits none.
    fault = np.where(mass > 0.0, counts == 0, counts > 0)
    if mode == "random":
        fault |= (mass > 0.0) & (mass < entry_floor * counts - 1e-12)
    if fault.any():
        i, q = divmod(int(fault.argmax()), clus.k)
        d = int(counts[i, q])
        if mass[i, q] <= 0.0:
            raise InfeasibleError(
                f"graph links cluster {q} into vertex {i} but the quotient"
                f" gives that block zero mass"
            )
        if not d:
            raise InfeasibleError(
                f"vertex {i} has no in-neighbor in cluster {q}, required by the quotient"
            )
        raise InfeasibleError(
            f"block mass {float(mass[i, q]):.4f} cannot give {d} in-neighbors of vertex"
            f" {i} at least {entry_floor} each"
        )
    # Links in (vertex, cluster, column) order: each block's run is contiguous.
    rows, pos = np.nonzero(s[:, clus.order])
    cols = clus.order[pos]
    block_mass = mass[rows, labels[cols]]
    d = counts[rows, labels[cols]]
    a = np.zeros((clus.n, clus.n))
    if mode == "equal":
        a[rows, cols] = block_mass / d
    else:
        split = _dirichlet_split(rng, counts[counts > 0])
        a[rows, cols] = entry_floor + (block_mass - entry_floor * d) * split
    a = validate(a)
    if schedule_quotient((a,), clus, tol=1e-12).quotient is None:
        raise RuntimeError("generated matrix failed the common-influence check")
    if not np.array_equal(a > 1e-12, s):
        raise RuntimeError("generated matrix support does not match the graph")
    return a


def gen_common_influence_matrix(
    spec: GeneratorSpec, s: np.ndarray, mode: str = "random"
) -> np.ndarray:
    """Stochastic matrix supported exactly on ``s`` whose quotient is the
    spec's (resolved) quotient.

    ``mode="random"`` floors every positive entry at ``spec.entry_floor`` and
    splits the remaining block mass by a seeded symmetric Dirichlet draw;
    ``mode="equal"`` divides each block mass evenly over the in-neighbors.
    """
    rng = np.random.default_rng(spec._seeds["matrix"])
    return _matrix_on_graph(spec._quotient, spec.clustering(), s, spec.entry_floor, mode, rng)


def gen_switching_schedule(
    spec: GeneratorSpec, m: int, window: int, mode: str = "random"
) -> MatrixSchedule:
    """Periodic schedule of ``m`` matrices sharing one static quotient.

    No single graph has cluster spanning trees, yet the union over any
    ``window`` consecutive steps does (``window >= m``, so each window sees
    every graph).  Rootlessness is anchored in clusters whose quotient row is
    diagonal-only: they receive no cross-cluster links, so a dropped
    arborescence edge leaves its child unreachable in that graph.  Each graph
    drops one anchor edge round-robin; with at least two anchor edges, every
    edge survives in some other graph and the union keeps its trees.
    """
    if m < 1:
        raise ValueError("need at least one matrix")
    if window < m:
        raise ValueError("window must cover the whole schedule period")
    if m == 1:
        a = gen_common_influence_matrix(spec, gen_graph_with_cluster_trees(spec), mode)
        return MatrixSchedule((a,), floor=spec.entry_floor)
    clus = spec.clustering()
    b = resolve_quotient(spec)
    rng = np.random.default_rng(spec._seeds["schedule"])

    def anchors(q: np.ndarray) -> list[int]:
        return [
            p
            for p in range(clus.k)
            if clus.sizes[p] >= 2
            and all(q[p, j] <= 0.0 for j in range(clus.k) if j != p)
        ]

    if spec.quotient is None:
        # grow the anchor pool by zeroing rows, largest clusters first
        for p in sorted(range(clus.k), key=lambda p: -clus.sizes[p]):
            if sum(clus.sizes[a] - 1 for a in anchors(b)) >= 2:
                break
            if clus.sizes[p] >= 2:
                b[p] = 0.0
                b[p, p] = 1.0
    pool_size = sum(clus.sizes[a] - 1 for a in anchors(b))
    if pool_size < 2:
        raise InfeasibleError(
            "cannot split tree edges across graphs: need at least two"
            " arborescence edges inside clusters without incoming"
            f" cross-blocks (diagonal-only quotient rows); spec has {pool_size}"
        )

    trees = [_random_tree(members, rng) for members in clus.clusters]
    pool = [(p, j) for p in anchors(b) for j in range(len(trees[p]))]
    order = rng.permutation(len(pool))
    drops = [pool[order[l % len(pool)]] for l in range(m)]

    cross = np.where(np.eye(clus.k, dtype=bool), 0.0, b)
    graphs = [
        _support(
            spec,
            [[e for j, e in enumerate(tree) if (p, j) != drop] for p, tree in enumerate(trees)],
            cross,
            rng,
        )
        for drop in drops
    ]

    for l, s in enumerate(graphs):
        if cluster_spanning_tree_roots(s, clus) is not None:
            raise RuntimeError(f"schedule graph {l} unexpectedly has cluster trees")
    if cluster_spanning_tree_roots(np.logical_or.reduce(graphs), clus) is None:
        raise RuntimeError("schedule union lost its cluster spanning trees")
    mats = tuple(
        _matrix_on_graph(b, clus, s, spec.entry_floor, mode, rng) for s in graphs
    )
    return MatrixSchedule(mats, floor=spec.entry_floor)


# ---------------------------------------------------------------------------
# Bundled examples: nine agents in three clusters of three.


def example_clustering() -> Clustering:
    return Clustering.from_sizes((3, 3, 3))


def example_quotient() -> np.ndarray:
    return np.array(
        [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]
    )


def example_signal() -> PeriodicInput:
    """Alternating unit signal of period two."""
    return PeriodicInput(period=2, free_values=(-1.0,))


def example_alphas() -> tuple[float, ...]:
    return (1.0, 0.5, -0.5)


def example_graph_static() -> np.ndarray:
    """Fixed-topology example: cluster 1 is led by vertex 2; vertex 6 roots
    both trailing clusters through mutual cross-cluster coverage."""
    edges = {(v, v) for v in range(9)}
    edges |= {(2, 0), (2, 1)}
    edges |= {(6, 3), (6, 4), (6, 5)}
    edges |= {(3, 6), (4, 7), (5, 8)}
    return support(9, edges)


def example_graphs_switching() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three graphs, each missing cluster spanning trees, whose union has
    them; all share the static quotient of :func:`example_quotient`."""
    common = {(v, v) for v in range(9)} | {(3, 6), (4, 7), (5, 8)}
    return (
        support(9, common | {(2, 0), (6, 3), (7, 4), (8, 5)}),
        support(9, common | {(2, 1), (6, 3), (6, 4), (7, 4), (8, 5)}),
        support(9, common | {(6, 3), (6, 5), (7, 4)}),
    )


def _example_matrix(s: np.ndarray) -> np.ndarray:
    clus = example_clustering()
    b = example_quotient()
    rng = np.random.default_rng(0)  # equal mode draws nothing
    return _matrix_on_graph(b, clus, s, entry_floor=0.1, mode="equal", rng=rng)


def example_matrix_static() -> np.ndarray:
    return _example_matrix(example_graph_static())


def example_schedule_switching() -> MatrixSchedule:
    mats = tuple(_example_matrix(s) for s in example_graphs_switching())
    return MatrixSchedule(mats, floor=0.1)


def example_learning_flags() -> np.ndarray:
    """Zero-sum two-state flags: leading cluster pro state 1, trailing anti."""
    return np.array([[1.0, -1.0], [0.0, 0.0], [-1.0, 1.0]])


EXAMPLE_WINDOW = 3
EXAMPLE_LEARNING_STRENGTH = 0.01
