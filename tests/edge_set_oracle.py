"""Reference construction of the generators' support graphs as Python sets
of ``(source, target)`` links, converted once by ``graph.support``.

This is the form the generators built before they drew straight into the
boolean support array; the tests hold the array construction to it, draw
for draw.
"""

import numpy as np

from cclab.generate import InfeasibleError, _random_tree, resolve_quotient
from cclab.graph import support


def cover_block(edges, targets, sources, mass, spec, rng):
    """Give every target an in-neighbor among ``sources``, then add extra
    source links per ``spec.density`` up to the in-degree the entry floor
    allows for block mass ``mass``."""
    cap = int(min(float(mass) / spec.entry_floor, len(sources)))
    for v in targets:
        have = sum(1 for u in sources if (u, v) in edges)
        if not have:
            edges.add((sources[int(rng.integers(len(sources)))], v))
            have = 1
        room = cap - have
        if room <= 0 or spec.density == 0.0:
            continue
        candidates = [u for u in sources if (u, v) not in edges]
        picks = [u for u, r in zip(candidates, rng.random(len(candidates))) if r < spec.density]
        edges.update((u, v) for u in picks[:room])


def fixed_graph(spec, rng):
    """The fixed generator's support, drawn from ``rng``."""
    b = spec._quotient
    clus = spec.clustering()
    edges = {(v, v) for v in range(spec.n)}
    for members in clus.clusters:
        edges.update(_random_tree(members, rng))
    for p, targets in enumerate(clus.clusters):
        for q, sources in enumerate(clus.clusters):
            if b[p, q] > 0:
                cover_block(edges, targets, sources, b[p, q], spec, rng)
    return support(spec.n, edges)


def switching_graphs(spec, m, rng):
    """The switching generator's ``m`` supports (``m >= 2``), drawn from
    ``rng``; ``InfeasibleError`` where too few tree links can be dropped."""
    clus = spec.clustering()
    b = resolve_quotient(spec)

    def anchors(q):
        return [
            p
            for p in range(clus.k)
            if clus.sizes[p] >= 2
            and all(q[p, j] <= 0.0 for j in range(clus.k) if j != p)
        ]

    if spec.quotient is None:
        for p in sorted(range(clus.k), key=lambda p: -clus.sizes[p]):
            if sum(clus.sizes[a] - 1 for a in anchors(b)) >= 2:
                break
            if clus.sizes[p] >= 2:
                b[p] = 0.0
                b[p, p] = 1.0
    if sum(clus.sizes[a] - 1 for a in anchors(b)) < 2:
        raise InfeasibleError("too few droppable tree edges")

    trees = [_random_tree(members, rng) for members in clus.clusters]
    pool = [(p, j) for p in anchors(b) for j in range(len(trees[p]))]
    order = rng.permutation(len(pool))
    drops = [pool[order[l % len(pool)]] for l in range(m)]

    graphs = []
    for l in range(m):
        edges = {(v, v) for v in range(spec.n)}
        for p, tree in enumerate(trees):
            edges.update(e for j, e in enumerate(tree) if (p, j) != drops[l])
        for p, targets in enumerate(clus.clusters):
            for q, sources in enumerate(clus.clusters):
                if b[p, q] > 0 and p != q:
                    cover_block(edges, targets, sources, b[p, q], spec, rng)
        graphs.append(support(spec.n, edges))
    return graphs
