"""Graph predicates checked against brute-force oracles and the bundled examples."""

import numpy as np
import pytest

from cclab import graph as graph_module
from cclab.graph import (
    Clustering,
    _bfs,
    cluster_roots,
    cluster_spanning_tree_roots,
    common_link_faults,
    in_cover,
    is_cluster_scrambling,
    successors,
    support,
)
from cclab.generate import (
    example_clustering,
    example_graph_static,
    example_graphs_switching,
)


def closure_matrix(s):
    """Floyd-Warshall transitive closure; reach[a, b] means a path a -> b."""
    n = len(s)
    reach = np.eye(n, dtype=bool)
    for dst, src in np.argwhere(s):
        reach[src, dst] = True
    for k in range(n):
        reach |= reach[:, k][:, None] & reach[k, :][None, :]
    return reach


def in_neighbors(s):
    """In-neighbor sets read link by link: ``j`` is one of ``i``'s when ``s[i, j]``."""
    inn = [set() for _ in range(len(s))]
    for i, j in np.argwhere(s).tolist():
        inn[i].add(j)
    return inn


def random_graph(rng, n, p=0.2, self_loops=True):
    edges = {(v, v) for v in range(n)} if self_loops else set()
    mask = rng.random((n, n)) < p
    edges |= {(int(u), int(v)) for u, v in np.argwhere(mask)}
    return support(n, edges)


def random_clustering_of(rng, n):
    k = int(rng.integers(1, min(4, n) + 1))
    labels = rng.integers(0, k, size=n)
    labels[rng.permutation(n)[:k]] = np.arange(k)  # keep every cluster nonempty
    clusters = tuple(
        tuple(int(v) for v in np.nonzero(labels == p)[0]) for p in range(k)
    )
    return Clustering(n, clusters)


def test_reachable_set_matches_transitive_closure():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        g = random_graph(rng, n, p=float(rng.uniform(0.05, 0.5)))
        reach = closure_matrix(g)
        for v in range(n):
            assert _bfs(successors(g), v) == set(np.nonzero(reach[v])[0].tolist())


def test_reachable_set_contains_start_vertex():
    g = support(3, {(0, 1)})
    assert _bfs(successors(g), 2) == {2}


def test_roots_match_bruteforce_descending_scan():
    """Returned root is the largest vertex whose reachable set covers the cluster."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 10))
        g = random_graph(rng, n, p=float(rng.uniform(0.05, 0.6)))
        clus = random_clustering_of(rng, n)
        reach = closure_matrix(g)
        expected = []
        feasible = True
        for members in clus.clusters:
            cands = [v for v in range(n) if all(reach[v, m] for m in members)]
            if not cands:
                feasible = False
                break
            expected.append(max(cands))
        got = cluster_spanning_tree_roots(g, clus)
        if feasible:
            assert got == expected
        else:
            assert got is None


def test_cluster_roots_marks_rootless_clusters():
    """Each entry is the largest covering vertex, or None where the closure
    shows no vertex reaching the whole cluster."""
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 41))
        g = random_graph(rng, n, p=float(rng.uniform(0.01, 0.15)), self_loops=bool(rng.integers(2)))
        clus = random_clustering_of(rng, n)
        roots = cluster_roots(g, clus)
        reach = closure_matrix(g)
        for root, members in zip(roots, clus.clusters):
            cands = [v for v in range(n) if all(reach[v, m] for m in members)]
            assert root == (max(cands) if cands else None)
        spanning = cluster_spanning_tree_roots(g, clus)
        assert spanning == (None if None in roots else roots)


def test_root_scan_skips_what_a_failed_candidate_reaches(monkeypatch):
    """Clusters in a chain, each feeding the next: only cluster 1's vertices
    reach cluster 1, so the scan must not search every vertex above them."""
    k, size = 5, 20
    clus = Clustering.from_sizes((size,) * k)
    edges = set()
    for members in clus.clusters:
        edges |= {(v, members[(i + 1) % size]) for i, v in enumerate(members)}
    edges |= {(clus.clusters[p][-1], clus.clusters[p + 1][0]) for p in range(k - 1)}
    g = support(k * size, edges)
    calls = []
    original = graph_module._bfs
    monkeypatch.setattr(graph_module, "_bfs", lambda succ, v: calls.append(v) or original(succ, v))
    assert cluster_roots(g, clus) == [members[-1] for members in clus.clusters]
    assert len(calls) <= k + 1


def test_example_static_roots():
    g = example_graph_static()
    clus = example_clustering()
    roots = cluster_spanning_tree_roots(g, clus)
    assert roots == [2, 6, 6]
    assert tuple(r + 1 for r in roots) == (3, 7, 7)
    assert g.diagonal().all()
    assert not common_link_faults([g], clus)[0].any()


def test_example_switching_graphs_rootless_until_united():
    clus = example_clustering()
    graphs = example_graphs_switching()
    for g in graphs:
        assert cluster_roots(g, clus) == [None, None, None]
        assert cluster_spanning_tree_roots(g, clus) is None
    union = np.logical_or.reduce(graphs)
    assert cluster_spanning_tree_roots(union, clus) == [2, 6, 6]
    # any window of three consecutive schedule entries sees all three graphs
    for shift in range(3):
        window = [graphs[(shift + i) % 3] for i in range(3)]
        assert cluster_spanning_tree_roots(np.logical_or.reduce(window), clus) == [2, 6, 6]


def test_scrambling_requires_shared_in_neighbors():
    clus = Clustering.from_sizes((3,))
    star = support(3, {(0, 0), (0, 1), (0, 2)})
    assert is_cluster_scrambling(star, clus)
    chain = support(3, {(0, 1), (1, 2), (0, 0), (1, 1), (2, 2)})
    assert not is_cluster_scrambling(chain, clus)  # vertices 0 and 2 share nothing
    # a vertex with no in-neighbors at all fails even alone in its cluster
    naked = support(2, {(0, 0)})
    assert not is_cluster_scrambling(naked, Clustering.from_sizes((1, 1)))


def test_scrambling_matches_definition_on_random_graphs():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n, p=0.3, self_loops=bool(rng.integers(2)))
        clus = random_clustering_of(rng, n)
        inn = in_neighbors(g)
        expected = all(
            bool(inn[i] & inn[j]) if i != j else bool(inn[i])
            for members in clus.clusters
            for i in members
            for j in members
        )
        assert is_cluster_scrambling(g, clus) == expected


def test_common_link_property_is_all_or_nothing():
    clus = Clustering.from_sizes((2, 2))
    loops = {(v, v) for v in range(4)}
    full = support(4, loops | {(2, 0), (3, 1)})
    partial, switches = common_link_faults([full], clus)
    assert not partial.any() and not switches.any()
    partial, _ = common_link_faults([support(4, loops | {(2, 0)})], clus)
    # vertex 1 of cluster 0 lacks a source in cluster 1
    assert np.argwhere(partial).tolist() == [[0, 0, 1]]
    partial, switches = common_link_faults([full, support(4, loops)], clus)
    assert not partial.any()
    assert np.argwhere(switches).tolist() == [[0, 1]]


def test_in_cover_and_common_link_violations_match_in_neighbor_oracle():
    rng = np.random.default_rng(19)
    for _ in range(60):
        n = int(rng.integers(1, 10))
        clus = random_clustering_of(rng, n)
        graphs = [
            random_graph(rng, n, p=float(rng.uniform(0.0, 0.5)), self_loops=bool(rng.integers(2)))
            for _ in range(2)
        ]
        # hits[l, p, q]: vertices of C_p with an in-neighbor in C_q in graph l
        hits = np.zeros((2, clus.k, clus.k), dtype=int)
        for l, g in enumerate(graphs):
            inn = in_neighbors(g)
            expected_cover = np.array(
                [[bool(inn[v] & set(c)) for c in clus.clusters] for v in range(n)], dtype=bool
            ).reshape(n, clus.k)
            assert np.array_equal(in_cover(g, clus), expected_cover)
            for p, targets in enumerate(clus.clusters):
                for q, sources in enumerate(clus.clusters):
                    hits[l, p, q] = sum(bool(inn[v] & set(sources)) for v in targets)
        size = np.array([len(c) for c in clus.clusters])[None, :, None]
        partial, switches = common_link_faults(graphs, clus)
        assert np.array_equal(partial, (0 < hits) & (hits < size))
        assert np.array_equal(switches, (hits == 0).any(axis=0) & (hits == size).any(axis=0))
        assert np.array_equal(common_link_faults(graphs[:1], clus)[0], partial[:1])
    assert not in_cover(support(2, ()), Clustering.from_sizes((1, 1))).any()


def test_clustering_validation():
    with pytest.raises(ValueError):
        Clustering(3, ((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        Clustering(3, ((0, 1),))  # vertex 2 uncovered
    with pytest.raises(ValueError):
        Clustering(2, ((0, 1), ()))  # empty cluster
    clus = Clustering.from_sizes((2, 3))
    assert clus.n == 5
    assert clus.k == 2
    assert clus.sizes == (2, 3)
    assert clus.clusters == ((0, 1), (2, 3, 4))
    assert [clus.labels()[v] for v in range(5)] == [0, 0, 1, 1, 1]
    assert clus.labels().tolist() == [0, 0, 1, 1, 1]


def test_cluster_layout_and_reductions():
    clus = Clustering(5, ((4, 1), (0, 2, 3)))
    assert clus.order.tolist() == [1, 4, 0, 2, 3]
    assert clus.starts.tolist() == [0, 2]
    assert clus.labels().tolist() == [1, 0, 1, 1, 0]
    x = np.array([1.0, 3.0, -1.0, -1.5, 2.0])
    assert clus.sums(x).tolist() == [5.0, -1.5]
    assert clus.means(x).tolist() == [2.5, -0.5]
    assert clus.spreads(x).tolist() == [1.0, 2.5]
    assert clus.spreads(np.zeros(5)).tolist() == [0.0, 0.0]
    assert Clustering.from_sizes((2, 2)).spreads(x[:4]).tolist() == [2.0, 0.5]
    assert clus.sums(np.ones((3, 5), dtype=bool)).tolist() == [[2, 3]] * 3


def test_cluster_reductions_add_in_member_order():
    """Each cluster's sum and mean equal those of the fancy-indexed block
    ``x[..., list(C_p)]`` bit for bit, in one and two dimensions."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 200))
        clus = random_clustering_of(rng, n)
        a = rng.dirichlet(np.ones(n), size=n)
        for p, members in enumerate(clus.clusters):
            block = a[:, list(members)]
            assert np.array_equal(clus.sums(a)[:, p], block.sum(axis=1))
            assert np.array_equal(clus.means(a)[:, p], block.mean(axis=1))
            assert clus.means(a[0])[p] == a[0, list(members)].mean()
            assert np.array_equal(clus.spreads(a)[:, p], block.max(axis=1) - block.min(axis=1))


def test_support_lays_links_out_as_the_coupling():
    # a link j -> i is s[i, j], where a coupling that listens along it is positive
    s = support(2, {(1, 0), (np.int64(1), np.int64(1))})
    assert s.tolist() == [[False, True], [False, True]]
    assert s.dtype == bool
    assert successors(s) == [[], [0, 1]]


@pytest.mark.parametrize("n, density", [(1, 0.5), (8, 0.0), (8, 0.3), (40, 0.05), (300, 0.05)])
def test_successors_match_the_split_of_the_transposed_support(n, density):
    rng = np.random.default_rng(n)
    for _ in range(5):
        s = rng.random((n, n)) < density
        src, dst = np.nonzero(s.T)
        cuts = np.cumsum(np.bincount(src, minlength=n))[:-1]
        expected = [part.tolist() for part in np.split(dst, cuts)]
        got = successors(s)
        assert got == expected
        assert all(type(v) is int for row in got for v in row)


def test_support_rejects_an_out_of_range_edge():
    with pytest.raises(ValueError, match=r"edge \(0, 2\) out of range for n=2"):
        support(2, {(0, 0), (0, 2)})
    with pytest.raises(ValueError, match=r"edge \(-1, 0\) out of range"):
        support(2, {(-1, 0)})
    with pytest.raises(ValueError):
        support(0, ())
