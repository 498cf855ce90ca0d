"""Random instances for the property suites: clusterings, stochastic
matrices, matrices with exact common influence, matrices whose graph has
cluster spanning trees, and driven systems that meet or miss each claim's
hypotheses."""

import numpy as np

from cclab.dynamics import System
from cclab.generate import _random_tree
from cclab.graph import Clustering
from cclab.signals import PeriodicInput
from cclab.stochastic import MatrixSchedule, validate


def random_clustering(
    rng: np.random.Generator, n_max: int = 10, k_max: int = 4, n_min: int = 2
) -> Clustering:
    """Random partition of a random-size vertex set into at most ``k_max`` clusters."""
    n = int(rng.integers(n_min, n_max + 1))
    k = int(rng.integers(1, min(k_max, n) + 1))
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False)) if k > 1 else []
    parts = np.split(perm, cuts)
    return Clustering(n, tuple(tuple(int(v) for v in part) for part in parts))


def random_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense random stochastic matrix with Dirichlet rows."""
    return rng.dirichlet(np.ones(n), size=n)


def random_common_influence(
    rng: np.random.Generator, clustering: Clustering, sparse: bool = False
) -> np.ndarray:
    """Random matrix with exact inter-cluster common influence.

    Draws a random quotient (optionally with a sparse support) and splits
    each block mass over the full target block by a Dirichlet draw.
    """
    k = clustering.k
    n = clustering.n
    b = np.zeros((k, k))
    for p in range(k):
        if sparse:
            active = np.nonzero(rng.random(k) < 0.6)[0]
            if active.size == 0:
                active = np.array([int(rng.integers(k))])
        else:
            active = np.arange(k)
        b[p, active] = rng.dirichlet(np.ones(active.size))
    a = np.zeros((n, n))
    for p, targets in enumerate(clustering.clusters):
        for q, sources in enumerate(clustering.clusters):
            if b[p, q] <= 0:
                continue
            for i in targets:
                a[i, list(sources)] = b[p, q] * rng.dirichlet(np.ones(len(sources)))
    return validate(a)


def random_clustered_tree_matrix(
    rng: np.random.Generator, clustering: Clustering, density: float = 0.2
) -> np.ndarray:
    """Random stochastic matrix whose graph has self-links and cluster
    spanning trees (arbitrary extra edges allowed)."""
    n = clustering.n
    edges = {(v, v) for v in range(n)}
    for members in clustering.clusters:
        edges.update(_random_tree(members, rng))
    extra = rng.random((n, n)) < density
    for u in range(n):
        for v in range(n):
            if extra[u, v]:
                edges.add((u, v))
    a = np.zeros((n, n))
    for i in range(n):
        nbrs = sorted(u for (u, w) in edges if w == i)
        d = len(nbrs)
        # Mix a uniform floor into the Dirichlet draw so no entry degenerates.
        a[i, nbrs] = 0.5 / d + 0.5 * rng.dirichlet(np.ones(d))
    return validate(a)


def random_clustered_coupling(
    rng: np.random.Generator,
    clustering: Clustering,
    hears: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Random stochastic matrix that meets or misses each structural
    hypothesis by chance.

    Each vertex has a self-link, and each cluster a spanning tree, with
    probability 0.9. ``hears[p, q]`` (K x K, False on the diagonal) says
    whether ``C_p`` has links from ``C_q``; each vertex of ``C_p`` then
    misses them with probability 0.1, which leaves a partial cover. With
    ``weights`` (K x K, rows summing to one) a vertex of ``C_p`` splits row
    ``p`` over the clusters it hears, renormalized, so the block sums are
    common wherever the clusters' covers agree; without, every row is one
    Dirichlet draw over its in-neighbors.
    """
    n = clustering.n
    labels = clustering.labels()
    support = np.zeros((n, n), dtype=bool)
    support[np.diag_indices(n)] = rng.random(n) < 0.9
    for members in clustering.clusters:
        if rng.random() < 0.9:
            for parent, child in _random_tree(members, rng):
                support[child, parent] = True
    for p, q in np.argwhere(hears).tolist():
        sources = np.array(clustering.clusters[q])
        for i in clustering.clusters[p]:
            if rng.random() < 0.9:
                picked = sources[rng.random(sources.size) < 0.6]
                support[i, picked if picked.size else sources[:1]] = True
    a = np.zeros((n, n))
    for i in range(n):
        if not support[i].any():
            support[i, i] = True
        nbrs = np.flatnonzero(support[i])
        if weights is None:
            a[i, nbrs] = rng.dirichlet(np.ones(nbrs.size))
            continue
        heard = np.unique(labels[nbrs])
        mass = weights[labels[i], heard] / weights[labels[i], heard].sum()
        for q, m in zip(heard, mass):
            block = nbrs[labels[nbrs] == q]
            a[i, block] = m * rng.dirichlet(np.ones(block.size))
    return validate(a)


def random_driven_systems(seed: int) -> tuple[tuple[System, System], np.ndarray]:
    """A fixed and a switching system (2-3 matrices) on one random
    clustering of at most 7 agents and 3 clusters, both driven by one
    zero-sum periodic signal, and an initial state.

    The matrices share which cluster pairs are linked; 70% of the draws
    split every row by common cluster weights, the rest draw rows freely.
    """
    rng = np.random.default_rng(seed)
    clus = random_clustering(rng, n_max=7, k_max=3)
    k = clus.k
    hears = rng.random((k, k)) < 0.5
    np.fill_diagonal(hears, False)
    weights = rng.dirichlet(np.ones(k), size=k) if rng.random() < 0.7 else None
    fixed = random_clustered_coupling(rng, clus, hears, weights)
    schedule = MatrixSchedule(
        tuple(
            random_clustered_coupling(rng, clus, hears, weights)
            for _ in range(int(rng.integers(2, 4)))
        )
    )
    period = int(rng.integers(2, 5))
    signal = PeriodicInput(period, tuple(rng.uniform(-1.6, 1.6, size=period - 1)))
    alphas = tuple(np.cumsum(rng.uniform(0.3, 1.0, size=k)) - 1.0)
    systems = tuple(
        System(coupling=c, clustering=clus, alphas=alphas, signal=signal)
        for c in (fixed, schedule)
    )
    return systems, rng.uniform(-1.0, 1.0, size=clus.n)
