"""Random instances for the property suites: clusterings, stochastic
matrices, matrices with exact common influence, and matrices whose graph
has cluster spanning trees."""

import numpy as np

from cclab.generate import _random_tree
from cclab.graph import Clustering
from cclab.stochastic import validate


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
