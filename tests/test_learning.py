"""Belief dynamics: normalization, dual-path parity, range monitoring, zeta."""

import numpy as np
import pytest

from cclab.dynamics import System, Trajectory, simulate
from cclab.generate import (
    example_alphas,
    example_clustering,
    example_learning_flags,
    example_matrix_static,
    example_schedule_switching,
    example_signal,
)
from cclab.graph import Clustering
from cclab.learning import (
    BeliefProfile,
    BeliefRangeError,
    CulturalFlags,
    LearningRun,
    ValidityLog,
    learn_simulate,
)
from cclab.signals import ClusterOffsets, SequenceInput


def undriven(coupling=None, clustering=None, signal=None):
    """A system that learning drives by its flags: the example's coupling,
    clustering and signal unless given, and no offsets."""
    return System(
        coupling=example_matrix_static() if coupling is None else coupling,
        clustering=clustering or example_clustering(),
        signal=signal or example_signal(),
    )


def example_learning(strength=0.01, horizon=2000, profile0=None, slack=0.1):
    flags = CulturalFlags(example_learning_flags(), strength=strength)
    if profile0 is None:
        profile0 = BeliefProfile.uniform(9, 2)
    return learn_simulate(undriven(), flags, profile0, horizon, slack=slack)


def test_belief_profile_rows_must_sum_to_one():
    with pytest.raises(ValueError):
        BeliefProfile(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        BeliefProfile(np.ones((2, 2)), labels=("a",))
    prof = BeliefProfile.uniform(3, 4)
    assert prof.n == 3
    assert prof.m == 4
    assert prof.labels == ("theta_1", "theta_2", "theta_3", "theta_4")
    assert np.all(prof.beliefs == 0.25)


def test_random_profile_is_seeded_and_normalized():
    rng = np.random.default_rng(12)
    prof = BeliefProfile.random(rng, 5, 3)
    assert np.abs(prof.beliefs.sum(axis=1) - 1.0).max() < 1e-12
    again = BeliefProfile.random(np.random.default_rng(12), 5, 3)
    assert np.array_equal(prof.beliefs, again.beliefs)


def test_cultural_flags_validation():
    with pytest.raises(ValueError):
        CulturalFlags(np.array([[1.0, 0.0], [0.0, 0.0]]))  # row sum 1, not 0
    with pytest.raises(ValueError):
        CulturalFlags(example_learning_flags(), strength=-0.1)
    flags = CulturalFlags(example_learning_flags(), strength=0.02)
    assert flags.k == 3
    assert flags.m == 2


def test_learn_step_matches_manual_update():
    clus = example_clustering()
    flags = CulturalFlags(example_learning_flags(), strength=0.01)
    prof = BeliefProfile.uniform(9, 2)
    a = example_matrix_static()
    sig = example_signal()
    nxt = learn_simulate(undriven(a), flags, prof, horizon=1).beliefs[1]
    push = 0.01 * flags.table[clus.labels()]
    for s in range(2):
        manual = a @ prof.beliefs[:, s] + sig.value(0) * push[:, s]
        assert np.array_equal(nxt[:, s], manual)


def test_belief_sums_stay_at_one():
    run = example_learning(strength=0.01, horizon=2000)
    assert run.sum_drift() <= 1e-12
    assert run.validity.ok
    assert run.horizon == 2000


def test_per_state_paths_match_the_scalar_engine_bit_for_bit():
    """Each state's belief column is the scalar driven recursion; the learning
    loop must produce the identical floats."""
    clus = example_clustering()
    c = 0.01
    flags = CulturalFlags(example_learning_flags(), strength=c)
    rng = np.random.default_rng(99)
    prof = BeliefProfile.random(rng, 9, 2)
    run = learn_simulate(undriven(), flags, prof, 500)
    for s in range(2):
        gains = tuple(c * f for f in example_learning_flags()[:, s])
        sys = System(
            coupling=example_matrix_static(),
            clustering=clus,
            offsets=ClusterOffsets(clus, gains),
            signal=example_signal(),
        )
        traj = simulate(sys, prof.beliefs[:, s], 500)
        assert np.array_equal(Trajectory(run.beliefs[:, :, s]).states, traj.states)


def test_learning_supports_switching_schedules():
    flags = CulturalFlags(example_learning_flags(), strength=0.01)
    prof = BeliefProfile.uniform(9, 2)
    run = learn_simulate(undriven(example_schedule_switching()), flags, prof, 800)
    assert run.sum_drift() <= 1e-12
    assert run.validity.ok


def test_zeta_separates_driven_clusters_and_collapses_undriven():
    driven = example_learning(strength=0.01, horizon=2000)
    zeta = driven.zeta_series(1, 2, 0)
    assert zeta.shape == (2001,)
    assert zeta[-20:].max() > 1e-3
    control = example_learning(strength=0.0, horizon=2000)
    assert control.zeta_series(1, 2, 0)[-20:].max() < 1e-6
    assert control.validity.ok


def test_zeta_metric_matches_hand_means():
    clus = Clustering.from_sizes((2, 2))
    beliefs = np.array([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8], [0.4, 0.6]])
    flags = CulturalFlags(np.zeros((2, 2)), strength=0.0)
    valid = ValidityLog(ok=True, count=0, worst_low=0.0, worst_high=1.0)
    run = LearningRun(beliefs[None], clus, flags, valid, ("theta_1", "theta_2"))
    # cluster means for state 0: 0.8 vs 0.3
    assert run.zeta_series(0, 1, 0)[0] == pytest.approx(0.5)
    assert run.zeta_series(0, 1, 1)[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        run.zeta_series(1, 1, 0)


def test_zeta_series_rejects_equal_clusters():
    run = example_learning(horizon=10)
    with pytest.raises(ValueError):
        run.zeta_series(0, 0, 0)


def test_oversized_strength_aborts_with_a_named_culprit():
    with pytest.raises(BeliefRangeError) as info:
        example_learning(strength=5.0, horizon=100)
    err = info.value
    assert "c=5" in str(err)
    assert err.t >= 1
    assert 0 <= err.agent < 9
    assert err.state in (0, 1)
    assert f"agent {err.agent + 1}" in str(err)


def test_small_excursions_are_logged_not_fatal():
    """Beliefs may leave [0, 1] by less than the slack; the log records it."""
    skewed = np.tile([0.001, 0.999], (9, 1))
    run = example_learning(strength=0.05, horizon=50, profile0=BeliefProfile(skewed))
    assert not run.validity.ok
    assert run.validity.count > 0
    assert run.validity.worst_low < -0.01
    assert len(run.validity.excursions) <= 64
    doc = run.validity.to_dict()
    assert doc["ok"] is False
    assert doc["excursion_count"] == run.validity.count
    assert doc["first_excursions"][0]["agent"] >= 1


def test_excursions_are_logged_state_by_state_in_step_order():
    """Pinned log: all of state 1's excursions precede state 2's, and the
    log stops at 64 entries while the count goes on."""
    skewed = np.tile([0.001, 0.999], (9, 1))
    log = example_learning(
        strength=0.05, horizon=50, profile0=BeliefProfile(skewed)
    ).validity
    assert (log.count, log.worst_low, log.worst_high) == (100, -0.049, 1.049)
    state1 = [(t, 6, 0, -0.049) if t % 2 else (t, 3, 0, -0.024) for t in range(1, 51)]
    state2 = [(t, 6, 1, 1.049) if t % 2 else (t, 3, 1, 1.024) for t in range(1, 15)]
    assert log.excursions == tuple(state1 + state2)


def test_an_earlier_state_fails_before_a_later_one_is_scanned():
    """State 2 leaves the band at step 1, state 1 only at step 4; the error
    names state 1."""
    flags = CulturalFlags(
        np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]]), strength=1.0
    )
    prof = BeliefProfile(np.tile([0.5, -0.5, 1.0], (9, 1)))
    sig = SequenceInput((0.0, 0.0, 0.0, 1.0, 0.0, 0.0))
    with pytest.raises(BeliefRangeError) as info:
        learn_simulate(undriven(signal=sig), flags, prof, 6)
    err = info.value
    assert (err.t, err.state, err.agent, err.value) == (4, 0, 6, -0.5)


def test_tight_slack_turns_the_same_run_fatal():
    skewed = np.tile([0.001, 0.999], (9, 1))
    with pytest.raises(BeliefRangeError):
        example_learning(
            strength=0.05, horizon=50, profile0=BeliefProfile(skewed), slack=0.01
        )


def test_learning_run_accessors():
    run = example_learning(horizon=20)
    assert run.n == 9
    assert run.m == 2
    assert run.beliefs[7].shape == (9, 2)
    assert Trajectory(run.beliefs[:, :, 1]).states.shape == (21, 9)


def test_learn_simulate_validates_arguments():
    flags = CulturalFlags(example_learning_flags(), strength=0.01)
    prof = BeliefProfile.uniform(9, 2)
    with pytest.raises(ValueError):
        learn_simulate(undriven(), flags, prof, 0)
    with pytest.raises(ValueError):
        learn_simulate(undriven(), flags, prof, 10, slack=-0.1)
    with pytest.raises(ValueError):
        learn_simulate(
            undriven(clustering=Clustering.from_sizes((4, 5))), flags,
            BeliefProfile.uniform(8, 2), 10,
        )
