"""Support graphs, vertex clusterings, and structural predicates.

A graph on vertices ``0..n-1`` is an (n, n) boolean support ``s`` laid out
as the coupling it comes from: ``s[i, j]`` is True when ``a[i, j]``
exceeds the zero threshold, that is, agent ``i`` listens to agent ``j``
and the graph has a directed link ``j -> i``.  Row ``i`` holds the
in-neighbors of ``i``, column ``j`` the successors of ``j``.  A coupling's
support is ``a > zero``, the union of several is their
``np.logical_or.reduce``, and ``s.diagonal().all()`` says every vertex has
a self-link.

A clustering partitions the vertex set into K nonempty, pairwise disjoint
groups.  The predicates below are the structural hypotheses of the
cluster-consensus criteria:

* *cluster spanning trees*: each cluster ``C_p`` has a root vertex (which may
  lie outside ``C_p``) with directed paths to every vertex of ``C_p``;
* *cluster scrambling*: every same-cluster pair of vertices has a common
  in-neighbor;
* *common-link property*: for every ordered pair of clusters ``(p, q)``,
  either there are no links from ``C_q`` into ``C_p``, or every vertex of
  ``C_p`` has at least one in-neighbor in ``C_q``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


def support(n: int, edges: Iterable[tuple[int, int]]) -> np.ndarray:
    """(n, n) boolean support of the links ``(j, i)``, each from ``j`` to
    ``i``: ``s[i, j]`` is True for each of them. A vertex outside ``0..n-1``
    raises ``ValueError``."""
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    pairs = np.array(list(edges), dtype=np.intp).reshape(-1, 2)
    outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
    if outside.any():
        j, i = pairs[outside][0].tolist()
        raise ValueError(f"edge ({j}, {i}) out of range for n={n}")
    s = np.zeros((n, n), dtype=bool)
    s[pairs[:, 1], pairs[:, 0]] = True
    return s


@dataclass(frozen=True)
class Clustering:
    """Ordered partition of ``0..n-1`` into K nonempty clusters.

    Construction also fixes the layout every per-cluster reduction reads:
    ``order`` lists the members cluster by cluster, each in ascending order,
    so cluster ``p`` is the contiguous run of ``order`` that begins at
    ``starts[p]``.
    :meth:`sums`, :meth:`means` and :meth:`spreads` reduce the last axis of
    an array over each run of one label-sorted copy ``x[..., order]``, so a
    sum or mean adds a run's terms as ``x[..., list(C_p)]`` would.
    """

    n: int
    clusters: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        clusters = tuple(tuple(sorted(int(v) for v in c)) for c in self.clusters)
        object.__setattr__(self, "clusters", clusters)
        if not clusters:
            raise ValueError("clustering needs at least one cluster")
        seen: set[int] = set()
        for c in clusters:
            if not c:
                raise ValueError("empty cluster")
            for v in c:
                if not 0 <= v < self.n:
                    raise ValueError(f"vertex {v} out of range for n={self.n}")
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two clusters")
                seen.add(v)
        if len(seen) != self.n:
            # n may be far above len(seen): name the first few gaps only.
            missing = list(itertools.islice((v for v in range(self.n) if v not in seen), 10))
            more = self.n - len(seen) - len(missing)
            and_more = f" and {more} more" if more else ""
            raise ValueError(f"vertices not covered by any cluster: {missing}{and_more}")
        sizes = np.array([len(c) for c in clusters])
        order = np.fromiter(itertools.chain.from_iterable(clusters), dtype=np.intp, count=self.n)
        labels = np.empty(self.n, dtype=np.intp)
        labels[order] = np.repeat(np.arange(len(clusters)), sizes)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        for arr in (order, labels, starts):
            arr.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_runs", tuple(zip(starts.tolist(), ends.tolist())))

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "Clustering":
        """Contiguous clustering: the first ``sizes[0]`` vertices, and so on."""
        bounds = list(itertools.accumulate((int(s) for s in sizes), initial=0))
        return cls(bounds[-1], tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])))

    @property
    def k(self) -> int:
        return len(self.clusters)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.clusters)

    def labels(self) -> np.ndarray:
        return self._labels.copy()

    def _reduce(self, x, reduction) -> np.ndarray:
        grouped = np.asarray(x)[..., self.order]
        out = None
        for p, (s, e) in enumerate(self._runs):
            part = reduction(grouped[..., s:e], axis=-1)
            if out is None:
                out = np.empty(part.shape + (self.k,), part.dtype)
            out[..., p] = part
        return out

    def sums(self, x) -> np.ndarray:
        """``[..., p]`` is the sum of ``x[..., v]`` over ``v`` in ``C_p``."""
        return self._reduce(x, np.add.reduce)

    def means(self, x) -> np.ndarray:
        """``[..., p]`` is the mean of ``x[..., v]`` over ``v`` in ``C_p``."""
        return self._reduce(x, np.mean)

    def spreads(self, x) -> np.ndarray:
        """``[..., p]`` is max minus min of ``x[..., v]`` over ``v`` in ``C_p``."""
        return self._reduce(x, np.ptp)


def successors(s: np.ndarray) -> list[list[int]]:
    """``[j]`` lists, in ascending order, the vertices a link from ``j``
    reaches: column ``j`` of ``s``."""
    src, dst = np.nonzero(s.T)
    cuts = np.cumsum(np.bincount(src, minlength=len(s)))[:-1]
    return [part.tolist() for part in np.split(dst, cuts)]


def _bfs(succ: list[list[int]], v: int) -> set[int]:
    seen = {v}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in succ[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def cluster_roots(s: np.ndarray, clustering: Clustering) -> list[Optional[int]]:
    """One root per cluster, or None where the cluster has none.

    A root of cluster ``C_p`` is any vertex whose reachable set covers
    ``C_p``; it may lie outside ``C_p`` and may serve several clusters.
    Candidates are scanned in descending vertex order and the first valid
    one is returned, which makes the output deterministic. Each reachable
    set is computed at most once, when the scan first needs it. A vertex
    reachable from a candidate that fails reaches a subset of what that
    candidate reaches, so it fails too and is skipped for that cluster.
    """
    succ = successors(s)
    reach: dict[int, set[int]] = {}
    roots: list[Optional[int]] = []
    for members in clustering.clusters:
        target = set(members)
        failed: set[int] = set()
        root = None
        for v in range(len(s) - 1, -1, -1):
            if v in failed:
                continue
            if v not in reach:
                reach[v] = _bfs(succ, v)
            if target <= reach[v]:
                root = v
                break
            failed |= reach[v]
        roots.append(root)
    return roots


def cluster_spanning_tree_roots(s: np.ndarray, clustering: Clustering) -> Optional[list[int]]:
    """:func:`cluster_roots`, or None if some cluster has no root."""
    roots = cluster_roots(s, clustering)
    return None if None in roots else roots


def is_cluster_scrambling(s: np.ndarray, clustering: Clustering) -> bool:
    """True iff every same-cluster pair of vertices has a common in-neighbor.

    Pairs with ``i == j`` are included: each vertex needs at least one
    in-neighbor (a self-loop suffices).  ``[i, j]`` of the boolean product
    of a cluster's rows with their transpose says whether ``i`` and ``j``
    share one.
    """
    for members in clustering.clusters:
        rows = s[list(members)]
        if not (rows @ rows.T).all():
            return False
    return True


def in_cover(s: np.ndarray, clustering: Clustering) -> np.ndarray:
    """(n, K) table: ``[v, q]`` is True iff vertex ``v`` has an in-neighbor
    in ``C_q``."""
    return clustering.sums(s) > 0


def common_link_faults(
    supports: Sequence[np.ndarray], clustering: Clustering
) -> tuple[np.ndarray, np.ndarray]:
    """Property A over a set of supports, the all-or-nothing rule for cross
    links: ``partial[l, p, q]`` is True iff in support ``l`` some but not
    every vertex of ``C_p`` has an in-neighbor in ``C_q``, and
    ``switches[p, q]`` iff the pair has no such link in one support and
    full coverage in another."""
    # counts[l, p, q]: vertices of C_p with an in-neighbor in C_q in support l.
    counts = np.stack([clustering.sums(in_cover(s, clustering).T).T for s in supports])
    full = np.array(clustering.sizes)[:, None]
    partial = (counts > 0) & (counts < full)
    switches = (counts == 0).any(axis=0) & (counts == full).any(axis=0)
    return partial, switches
