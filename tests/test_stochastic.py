"""Stochastic-matrix functionals versus brute-force triple-loop oracles."""

import numpy as np
import pytest

from cclab.dynamics import System
from cclab.graph import Clustering, is_cluster_scrambling
from cclab.generate import (
    example_clustering,
    example_matrix_static,
    example_quotient,
)
from cclab.stochastic import (
    COMMON_INFLUENCE_TOL,
    MatrixSchedule,
    ergodicity_coefficient,
    hajnal_diameter,
    power_limit,
    schedule_quotient,
    validate,
)
from cclab.verifier import check_switching

from random_instances import random_common_influence, random_stochastic


def mu_bruteforce(a, clus):
    mu = 1.0
    for members in clus.clusters:
        for i in members:
            for j in members:
                if i >= j:
                    continue
                mu = min(mu, sum(min(a[i, k], a[j, k]) for k in range(a.shape[0])))
    return mu


def diam_bruteforce(a, clus):
    d = 0.0
    for members in clus.clusters:
        for i in members:
            for j in members:
                d = max(d, float(np.abs(a[i] - a[j]).sum()))
    return d


def random_clustering_of(rng, n):
    k = int(rng.integers(1, min(4, n) + 1))
    labels = rng.integers(0, k, size=n)
    labels[rng.permutation(n)[:k]] = np.arange(k)
    return Clustering(
        n, tuple(tuple(int(v) for v in np.nonzero(labels == p)[0]) for p in range(k))
    )


def test_validate_rejects_bad_matrices():
    with pytest.raises(ValueError):
        validate(np.array([[0.5, 0.6], [0.5, 0.5]]))  # row sum 1.1
    with pytest.raises(ValueError):
        validate(np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        validate(np.array([[np.nan, 1.0], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        validate(np.ones((2, 3)))
    with pytest.raises(ValueError):
        validate(np.ones(4))


def test_validate_renormalizes_within_tolerance():
    a = np.array([[0.5 + 4e-10, 0.5], [0.25, 0.75 - 4e-10]])
    out = validate(a)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-15


def test_ergodicity_coefficient_matches_bruteforce():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        a = random_stochastic(rng, n)
        clus = random_clustering_of(rng, n)
        assert ergodicity_coefficient(a, clus) == pytest.approx(
            mu_bruteforce(a, clus), abs=1e-14
        )


def test_hajnal_diameter_matches_bruteforce():
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        a = random_stochastic(rng, n)
        clus = random_clustering_of(rng, n)
        assert hajnal_diameter(a, clus) == pytest.approx(
            diam_bruteforce(a, clus), abs=1e-14
        )


def test_mu_is_unit_interval_and_detects_scrambling():
    """mu > 0 exactly when the support graph is cluster-scrambling."""
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        support = rng.random((n, n)) < 0.35
        support[np.arange(n), rng.integers(0, n, size=n)] = True  # no empty rows
        a = np.where(support, rng.uniform(0.2, 1.0, (n, n)), 0.0)
        a /= a.sum(axis=1, keepdims=True)
        clus = random_clustering_of(rng, n)
        mu = ergodicity_coefficient(a, clus)
        assert 0.0 <= mu <= 1.0
        scrambling = is_cluster_scrambling(a > 0, clus)
        assert (mu > 0.0) == scrambling


def test_singleton_clusters_do_not_constrain_mu():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    clus = Clustering.from_sizes((1, 1))
    assert ergodicity_coefficient(a, clus) == 1.0
    assert hajnal_diameter(a, clus) == 0.0


def test_hajnal_inequality_for_common_influence_products():
    """diam(AB) <= (1 - mu(A)) diam(B) whenever A has common influence."""
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        clus = random_clustering_of(rng, n)
        a = random_common_influence(rng, clus, sparse=bool(rng.integers(2)))
        b = random_stochastic(rng, n)
        lhs = hajnal_diameter(a @ b, clus)
        rhs = (1.0 - ergodicity_coefficient(a, clus)) * hajnal_diameter(b, clus)
        assert lhs <= rhs + 1e-12


def test_common_influence_deviation_hand_case():
    # block sums toward cluster {2,3}: row0 gives 0.4, row1 gives 0.7
    a = np.array(
        [
            [0.6, 0.0, 0.4, 0.0],
            [0.0, 0.3, 0.5, 0.2],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    clus = Clustering.from_sizes((2, 2))
    sq = schedule_quotient((a,), clus)
    assert sq.deviation == pytest.approx(0.3)
    assert sq.deviation > COMMON_INFLUENCE_TOL


def test_quotient_matrix_matches_block_sums():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        clus = random_clustering_of(rng, n)
        a = random_common_influence(rng, clus)
        b = schedule_quotient((a,), clus).quotient
        for p, targets in enumerate(clus.clusters):
            for q, sources in enumerate(clus.clusters):
                expected = float(a[targets[0], list(sources)].sum())
                assert b[p, q] == pytest.approx(expected, abs=1e-12)
        assert np.abs(b.sum(axis=1) - 1.0).max() < 1e-12


def test_quotient_matrix_requires_common_influence():
    clus = Clustering.from_sizes((2, 1))
    a = np.array([[0.9, 0.1, 0.0], [0.1, 0.1, 0.8], [0.0, 0.0, 1.0]])
    sq = schedule_quotient((a,), clus)
    assert sq.deviation == pytest.approx(0.8)
    assert (sq.quotient, sq.spread, sq.static) == (None, None, False)


def test_example_quotient_recovered_from_full_matrix():
    b = schedule_quotient((example_matrix_static(),), example_clustering()).quotient
    assert np.abs(b - example_quotient()).max() < 1e-15


def test_matrix_schedule_cycles_and_reports_floor():
    a = np.array([[0.9, 0.1], [0.4, 0.6]])
    b = np.array([[0.5, 0.5], [0.2, 0.8]])
    sched = MatrixSchedule((a, b))
    assert sched.period == 2
    assert sched.n == 2
    assert np.array_equal(sched.matrices[1], b)
    assert sched.floor == pytest.approx(0.1)  # defaults to smallest positive entry

    def floor_rows(floor):
        sys = System(coupling=MatrixSchedule((a, b), floor=floor), clustering=Clustering.from_sizes((2,)))
        report = check_switching(sys)
        return report.condition("entry-floor-b1"), report.condition("diagonal-floor-b2")

    entry, diagonal = floor_rows(0.3)
    assert entry.detail == "min positive entry 0.1 vs floor 0.3"
    assert diagonal.detail == "min diagonal entry 0.5 vs floor 0.3"
    assert not entry.passed
    assert diagonal.passed
    assert all(row.passed for row in floor_rows(0.1))


def test_matrix_schedule_validation():
    with pytest.raises(ValueError):
        MatrixSchedule(())
    with pytest.raises(ValueError):
        MatrixSchedule((np.eye(2), np.eye(3)))
    with pytest.raises(ValueError):
        MatrixSchedule((np.eye(2),), floor=1.5)


def test_power_limit_matches_high_power():
    rng = np.random.default_rng(47)
    a = random_stochastic(rng, 6)
    a = 0.5 * a + 0.5 * np.eye(6)  # keep the diagonal positive
    pl = power_limit(a)
    assert np.abs(pl.limit - np.linalg.matrix_power(a, 1000)).max() < 1e-9
    with pytest.raises(ValueError):
        power_limit(np.array([[0.0, 1.0], [1.0, 0.0]]))
