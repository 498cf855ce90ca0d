"""End-to-end command behavior: exit codes, artifacts, determinism."""

import copy
import hashlib
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from string import Template

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cclab
from cclab import cli as cli_module
from cclab import stochastic
from cclab.cli import main
from cclab.config import emit_config, example_config, generated_config
from cclab.generate import GeneratorSpec


@pytest.fixture
def config_a(tmp_path):
    path = tmp_path / "a.json"
    emit_config(example_config("A"), str(path))
    return str(path)


@pytest.fixture
def config_b(tmp_path):
    path = tmp_path / "b.json"
    emit_config(example_config("B"), str(path))
    return str(path)


def test_check_passes_on_example_a(config_a, capsys):
    assert main(["check", "--config", config_a]) == 0
    out = capsys.readouterr().out
    assert "claim: 2" in out
    assert "overall: pass" in out
    assert "window-union-spanning-trees" in out


def test_check_passes_on_example_b(config_b, capsys):
    assert main(["check", "--config", config_b]) == 0
    out = capsys.readouterr().out
    assert "window-union-spanning-trees" in out
    assert main(["check", "--config", config_b, "--theorem", "3"]) == 0


def test_check_writes_a_json_report(config_a, tmp_path):
    out = tmp_path / "report.json"
    assert main(["check", "--config", config_a, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["overall"] is True
    assert doc["theorem"] == 2
    assert doc["report"]["predicted"] == "cluster-consensus"
    assert len(doc["config_sha256"]) == 64


def test_check_fails_when_hypotheses_fail(tmp_path, capsys):
    doc = {
        "version": 1,
        "label": "isolated",
        "clustering": {"sizes": [3, 3, 3]},
        "topology": {"type": "fixed", "matrix": np.eye(9).tolist()},
        "initial_state": [0.0] * 9,
    }
    path = tmp_path / "iso.json"
    emit_config(doc, str(path))
    assert main(["check", "--config", str(path)]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_static_claims_reject_switching_configs(config_b):
    assert main(["check", "--config", config_b, "--theorem", "2"]) == 1


def test_simulate_writes_deterministic_artifacts(config_a, tmp_path, capsys):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    assert main(["simulate", "--config", config_a, "--out", str(d1)]) == 0
    assert main(["simulate", "--config", config_a, "--out", str(d2)]) == 0
    assert "verdict PASS" in capsys.readouterr().out
    t1 = (d1 / "trajectory.csv").read_bytes()
    t2 = (d2 / "trajectory.csv").read_bytes()
    assert t1 == t2
    assert (d1 / "metrics.json").read_bytes() == (d2 / "metrics.json").read_bytes()
    header = t1.decode().splitlines()[0]
    assert header == "t," + ",".join(f"x_{i}" for i in range(1, 10))
    assert len(t1.decode().splitlines()) == 2002  # header + 2001 states


@pytest.mark.parametrize("which", ["A", "B"])
def test_simulate_checks_the_quotient_and_scans_the_signal_once(which, tmp_path, monkeypatch):
    """The a-priori bound reads the quotient and the input peaks off the
    hypothesis report instead of computing them again."""
    path = tmp_path / "c.json"
    emit_config(example_config(which), str(path))
    calls = []

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.startswith("cclab.")]:
        for name in ("schedule_quotient", "partial_sum_bound"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert sorted(calls) == ["partial_sum_bound", "schedule_quotient"]


def test_simulate_metrics_content(config_a, tmp_path):
    d = tmp_path / "run"
    main(["simulate", "--config", config_a, "--out", str(d)])
    doc = json.loads((d / "metrics.json").read_text())
    assert doc["label"] == "paper-example-A"
    assert doc["norms"] == {
        "matrix": "l1-row-difference",
        "state": "max-abs-difference",
    }
    assert doc["final_intra_diameter"] < 1e-8
    assert doc["reconcile"]["status"] == "PASS"
    assert doc["periodic_limit"]["period"] == 2
    assert doc["periodic_limit"]["residual"] < 1e-8
    sep = np.array(doc["separation_matrix"])
    assert sep[1, 2] > 1e-3
    assert doc["bound_report"]["applicable"] is True
    assert doc["max_norm"] <= doc["bound_report"]["bound"]
    assert len(doc["intra_diameter_series"]) == doc["horizon"] + 1


def test_simulate_seed_override_changes_the_run(config_a, tmp_path):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    main(["simulate", "--config", config_a, "--out", str(d1)])
    main(["simulate", "--config", config_a, "--out", str(d2), "--seed", "77"])
    assert (d1 / "trajectory.csv").read_bytes() != (d2 / "trajectory.csv").read_bytes()


def test_simulate_switching_example(config_b, tmp_path):
    d = tmp_path / "sw"
    assert main(["simulate", "--config", config_b, "--out", str(d)]) == 0
    doc = json.loads((d / "metrics.json").read_text())
    assert doc["final_intra_diameter"] < 1e-8
    assert doc["reconcile"]["status"] == "PASS"
    assert doc["bound_report"]["applicable"] is True
    assert doc["max_norm"] <= doc["bound_report"]["bound"]


def test_simulate_theorem_flag_picks_the_claim(config_a, tmp_path):
    d = tmp_path / "claim1"
    assert main(["simulate", "--config", config_a, "--theorem", "1", "--out", str(d)]) == 0
    doc = json.loads((d / "metrics.json").read_text())
    assert doc["hypotheses"]["claim"] == "static-sync"


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_a_failed_verdict_exits_2(command, tmp_path, capsys):
    doc = example_config("A")
    doc["horizon"] = 8
    path = tmp_path / "short.json"
    emit_config(doc, str(path))
    d = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(d)]) == 2
    assert "FAIL" in capsys.readouterr().out
    assert json.loads((d / "metrics.json").read_text())["reconcile"]["status"] == "FAIL"


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_a_horizon_shorter_than_four_periods_is_an_input_error(command, tmp_path, capsys):
    doc = example_config("A")
    doc["horizon"] = 5
    path = tmp_path / "short.json"
    emit_config(doc, str(path))
    d = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(d)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: horizon 5 too short") and err.count("\n") == 1
    assert not d.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_simulate_reports_divergence(tmp_path, capsys):
    doc = example_config("A")
    del doc["learning"]
    doc["signal"] = {
        "period": 3,
        "free_values": [-2.0, 1.0],
        "alphas": [1.0, 0.5, -0.5],
        "strength": 1e308,
    }
    path = tmp_path / "hot.json"
    emit_config(doc, str(path))
    d = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(d)]) == 3
    assert "non-finite" in capsys.readouterr().err
    metrics = json.loads((d / "metrics.json").read_text())
    assert metrics["diverged_at"] == 2
    rows = (d / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 3  # header + the finite prefix x(0), x(1)


def test_report_on_a_diverging_run_writes_the_simulate_metrics(tmp_path, capsys):
    doc = example_config("A")
    doc["initial_state"] = [1.5e308] * 9
    doc["signal"]["strength"] = 1e308
    path = tmp_path / "hot.json"
    emit_config(doc, str(path))
    runs = {}
    for command in ("simulate", "report"):
        d = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(d)]) == 3
        assert capsys.readouterr().err == "error: non-finite state at step 1\n"
        runs[command] = (d / "metrics.json").read_bytes()
    assert runs["report"] == runs["simulate"]
    assert json.loads(runs["report"])["diverged_at"] == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["simulate", "report"])
def test_metrics_past_the_float_range_exit_3_and_write_nothing(command, tmp_path, capsys):
    """On example A at strength 1e308 the states stay finite, but the cycle
    levels' cluster means overflow and their gaps turn NaN. The run ends in
    one error line and exit 3, with no warning and no file written."""
    doc = example_config("A")
    doc["signal"]["strength"] = 1e308
    path = tmp_path / "hot.json"
    emit_config(doc, str(path))
    d = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(d)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: the run left float64's range: its metrics hold a NaN or an infinity\n"
    )
    assert list(d.iterdir()) == []


def test_simulate_requires_a_config_or_ensemble(capsys):
    assert main(["simulate"]) == 1
    assert "config" in capsys.readouterr().err


def test_ensemble_mode(tmp_path, capsys):
    out = tmp_path / "ens.json"
    code = main(
        [
            "simulate", "--ensemble", "6", "--theorem", "2", "--seed", "11",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "instances: 6" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["instances"] == 6
    assert doc["counts"].get("PASS", 0) == 6
    assert doc["errors"] == []


@pytest.mark.parametrize("count", ["0", "-3"])
def test_ensemble_count_below_one_is_an_input_error(count, capsys):
    assert main(["simulate", "--ensemble", count, "--theorem", "2", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --ensemble needs at least 1 instance, got {count}\n"


def test_ensemble_horizon_below_one_is_an_input_error(config_a, capsys):
    argv = ["simulate", "--ensemble", "3", "--theorem", "2", "--seed", "1", "--horizon", "0"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: horizon must be at least 1, got 0\n"
    assert main(["simulate", "--ensemble", "3", "--config", config_a, "--horizon", "0"]) == 1
    assert capsys.readouterr().err == "error: horizon must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seed", "abc", "error: config invalid at seed: 'abc' is not of type 'integer'\n"),
        ("theorem", 7, "error: config invalid at theorem: 7 is not one of [1, 2, 3, 4]\n"),
    ],
    ids=["seed", "theorem"],
)
def test_ensemble_config_fields_are_checked(tmp_path, key, value, message):
    config = tmp_path / "ens.json"
    emit_config(dict(example_config("A"), **{key: value}), str(config))
    code, out, err = _in_process(["simulate", "--ensemble", "2", "--config", str(config)])
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--seed", "1"],
        ["learn", "--horizon", "5"],
        ["simulate", "--ensemble", "2"],
    ],
    ids=["check-seed", "learn-horizon", "ensemble"],
)
def test_a_config_that_is_not_an_object_is_an_input_error(tmp_path, argv):
    config = tmp_path / "list.json"
    config.write_text("[1]\n")
    code, out, err = _in_process([*argv, "--config", str(config)])
    assert (code, out, err) == (1, "", "error: config invalid at (root): [1] is not of type 'object'\n")


@pytest.mark.parametrize("horizon", [2, 200])
def test_an_integral_float_ensemble_horizon_runs_like_an_integer(tmp_path, horizon):
    runs = []
    for value in (horizon, float(horizon)):
        config = tmp_path / "ens.json"
        emit_config(dict(example_config("A"), horizon=value), str(config))
        runs.append(_in_process(["simulate", "--ensemble", "3", "--config", str(config)]))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 2) and runs[0][2] == ""


@pytest.mark.parametrize("which", ["A", "B"])
def test_integral_float_run_fields_are_read_as_integers(tmp_path, which):
    """A ``seed``, ``horizon``, ``theorem`` or ``window`` given as an
    integral float runs as its integer: ``check`` and ``simulate`` print and
    write what the integer config gives, but for the digest of the document
    as given."""
    runs = []
    for kind in (int, float):
        doc = example_config(which)
        keys = [key for key in ("seed", "horizon", "theorem", "window") if key in doc]
        doc.update({key: kind(doc[key]) for key in keys})
        config = tmp_path / f"{kind.__name__}.json"
        emit_config(doc, str(config))
        checked, outdir = tmp_path / f"{kind.__name__}-check.json", tmp_path / kind.__name__
        printed = [
            _in_process(["check", "--config", str(config), "--out", str(checked)]),
            _in_process(["simulate", "--config", str(config), "--out", str(outdir)]),
        ]
        written = [json.loads(path.read_text()) for path in (checked, outdir / "metrics.json")]
        for d in written:
            d.pop("config_sha256")
        runs.append((printed, json.dumps(written)))
    assert runs[0] == runs[1]
    assert f"claim: {doc['theorem']:.0f}\n" in runs[1][0][0][1]


def test_ensemble_requires_theorem_and_seed(capsys):
    assert main(["simulate", "--ensemble", "2", "--seed", "1"]) == 1
    assert main(["simulate", "--ensemble", "2", "--theorem", "1"]) == 1
    capsys.readouterr()


def test_gen_paper_example_round_trips(tmp_path, capsys):
    path = tmp_path / "a.json"
    assert main(["gen", "--paper-example", "A", "--out", str(path)]) == 0
    assert main(["check", "--config", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert doc["label"] == "paper-example-A"


def test_gen_prints_to_stdout_without_out(capsys):
    assert main(["gen", "--paper-example", "B"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["topology"]["type"] == "switching"


def test_gen_random_fixed_and_switching(tmp_path, capsys):
    fixed = tmp_path / "f.json"
    assert main(["gen", "--sizes", "3,2", "--seed", "7", "--out", str(fixed)]) == 0
    assert main(["check", "--config", str(fixed)]) == 0
    sw = tmp_path / "s.json"
    assert (
        main(
            [
                "gen", "--sizes", "2,2", "--seed", "3", "--switching", "2",
                "--window", "2", "--out", str(sw),
            ]
        )
        == 0
    )
    assert main(["check", "--config", str(sw)]) == 0
    capsys.readouterr()


def test_gen_argument_errors(capsys):
    assert main(["gen"]) == 1
    assert main(["gen", "--sizes", "2,2"]) == 1  # no seed
    capsys.readouterr()


def test_gen_defaults_are_the_generator_spec_defaults():
    args = cli_module.build_parser().parse_args(["gen", "--sizes", "3,3", "--seed", "1"])
    assert args.entry_floor == GeneratorSpec.entry_floor
    assert args.density == GeneratorSpec.density


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff{}", "is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0"),
        (b"\xef\xbb\xbf{}", "is not valid JSON: Unexpected UTF-8 BOM"),
    ],
    ids=["0xff", "bom"],
)
def test_a_config_that_is_not_utf8_json_exits_1_with_one_line(tmp_path, data, message):
    config = tmp_path / "bad.json"
    config.write_bytes(data)
    done = _python("-m", "cclab.cli", "check", "--config", str(config))
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: config {config} ") and done.stderr.count("\n") == 1
    assert message in done.stderr
    assert "Traceback" not in done.stderr


def test_gen_infeasible_request_is_an_input_error(tmp_path, capsys):
    # singleton-only clusterings leave no in-cluster tree edges to withhold
    code = main(["gen", "--sizes", "1,1", "--seed", "5", "--switching", "2"])
    assert code == 1
    assert "tree edges" in capsys.readouterr().err


def test_learn_emits_beliefs_zeta_and_validity(config_a, tmp_path, capsys):
    d = tmp_path / "learn"
    assert main(["learn", "--config", config_a, "--out", str(d)]) == 0
    out = capsys.readouterr().out
    assert "final zeta" in out
    beliefs = (d / "beliefs.csv").read_text().splitlines()
    assert beliefs[0] == "t,agent,state,belief"
    assert beliefs[1].startswith("0,1,theta_1,")
    assert len(beliefs) == 1 + 2001 * 9 * 2
    zeta = (d / "zeta.csv").read_text().splitlines()
    assert zeta[0] == "t,zeta"
    assert len(zeta) == 2002
    assert float(zeta[-1].split(",")[1]) > 1e-3
    validity = json.loads((d / "validity.json").read_text())
    assert validity["validity"]["ok"] is True
    assert validity["zeta_clusters"] == [2, 3]
    assert validity["zeta_state"] == "theta_1"
    assert abs(validity["belief_sum_drift"]) <= 1e-12


def test_learn_is_deterministic(config_a, tmp_path):
    d1 = tmp_path / "l1"
    d2 = tmp_path / "l2"
    main(["learn", "--config", config_a, "--out", str(d1)])
    main(["learn", "--config", config_a, "--out", str(d2)])
    assert (d1 / "beliefs.csv").read_bytes() == (d2 / "beliefs.csv").read_bytes()
    assert (d1 / "zeta.csv").read_bytes() == (d2 / "zeta.csv").read_bytes()


def test_learn_range_violation_exit_code(tmp_path, capsys):
    doc = example_config("A")
    doc["learning"]["strength"] = 5.0
    path = tmp_path / "hot.json"
    emit_config(doc, str(path))
    assert main(["learn", "--config", str(path), "--out", str(tmp_path / "o")]) == 4
    assert "reduce the influence strength" in capsys.readouterr().err


def test_learn_divergence_exit_code(tmp_path, capsys):
    """An overflowing gain ends the run in one error line and no warning,
    also where an infinite gain meets u = 0 (all-zero free values)."""
    hot = example_config("A")
    hot["learning"]["strength"] = 1e308
    hot["learning"]["flags"] = [[2, -2], [0, 0], [-2, 2]]
    still = copy.deepcopy(hot)
    still["signal"]["free_values"] = [0.0]
    plain = example_config("A")
    plain["signal"].update(strength=1e308, alphas=[2.0, 1.0, -2.0], free_values=[0.0])
    for i, (command, doc) in enumerate([("learn", hot), ("learn", still), ("simulate", plain)]):
        path = tmp_path / f"hot{i}.json"
        emit_config(doc, str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(path), "--out", str(tmp_path / f"o{i}")])
        assert code == 3, command
        assert capsys.readouterr().err == "error: non-finite state at step 1\n"


@pytest.mark.parametrize(
    "signal, strength, digest",
    [
        (False, 0.01, "da4eca0a1c487fe78f9c259823bf051d1e19c5def7eb220310890776af07269a"),
        (False, 0.0, "da4eca0a1c487fe78f9c259823bf051d1e19c5def7eb220310890776af07269a"),
        (True, 0.0, "da4eca0a1c487fe78f9c259823bf051d1e19c5def7eb220310890776af07269a"),
        (True, 0.01, "994a8780a4b2f3c08fa05ecf5e3e70ea302920a2df4ac996ae188d7c9177679c"),
    ],
)
def test_learn_keeps_the_bytes_of_a_negative_zero_belief(signal, strength, digest, tmp_path):
    """Beliefs of -0.0 at t = 0: undriven, zero-strength and driven runs keep
    the pinned beliefs.csv bytes, whose later steps read 0, not -0."""
    doc = example_config("A")
    if not signal:
        del doc["signal"]
    doc["horizon"] = 40
    doc["learning"].update(strength=strength, initial=[[1.0, -0.0]] * 9)
    path = tmp_path / "zero.json"
    emit_config(doc, str(path))
    assert main(["learn", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    data = (tmp_path / "o" / "beliefs.csv").read_bytes()
    assert data.count(b",-0\n") == 9
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "base, signal, theorem, holds, verdict",
    [
        ("A", {"alphas": [1.0, 1.0, -0.5]}, 1, True, "PASS"),
        ("A", {"alphas": [1.0, 1.0, -0.5]}, 2, False, "PASS-VACUOUS"),
        ("B", {"alphas": [1.0, -0.5, 1.0]}, 3, True, "PASS"),
        # Claim 4 still predicts intra-cluster synchronization.
        ("B", {"alphas": [1.0, -0.5, 1.0]}, 4, False, "PASS"),
        # A zero strength makes every gain zero.
        ("A", {"strength": 0}, 2, False, "PASS-VACUOUS"),
    ],
    ids=["A-claim-1", "A-claim-2", "B-claim-3", "B-claim-4", "A-zero-strength"],
)
def test_equal_gains_fail_only_the_consensus_claims(
    base, signal, theorem, holds, verdict, tmp_path, capsys
):
    """Distinct gains are a hypothesis of claims 2 and 4 alone: equal gains
    load, fail only the ``distinct-inputs`` row and leave claims 1 and 3
    whole; ``report`` exits 0 with the verdict."""
    doc = example_config(base)
    doc["signal"].update(signal)
    path = tmp_path / "equal.json"
    emit_config(doc, str(path))
    argv = ["--config", str(path), "--theorem", str(theorem)]
    assert main(["check", *argv, "--out", str(tmp_path / "check.json")]) == (0 if holds else 2)
    report = json.loads((tmp_path / "check.json").read_text())["report"]
    assert [c["name"] for c in report["conditions"] if not c["passed"]] == ["distinct-inputs"]
    capsys.readouterr()
    assert main(["report", *argv]) == 0
    assert f"\nverdict: {verdict}\n" in capsys.readouterr().out


def test_learn_without_learning_section(tmp_path, capsys):
    doc = example_config("A")
    del doc["learning"]
    path = tmp_path / "plain.json"
    emit_config(doc, str(path))
    assert main(["learn", "--config", str(path)]) == 1
    assert "learning" in capsys.readouterr().err


def test_report_summarizes_the_run(config_a, tmp_path, capsys):
    d = tmp_path / "rep"
    assert main(["report", "--config", config_a, "--out", str(d)]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    assert "final intra diameter" in out
    assert "smallest cluster separation" in out
    assert "within bound" in out
    assert (d / "metrics.json").exists()


def test_bad_config_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1')
    assert main(["check", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["check", "--config", str(tmp_path / "absent.json")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "clusters, message",
    [
        ([[0, 1, 2], [2, 3, 4], [5, 6, 7, 8]], "vertex 2 appears in two clusters"),
        ([[0, 1, 2], [3, 4, 5], [6, 7, 9]], "vertices not covered by any cluster: [8]"),
        ([[0, 1, 2], [3, 4, 5], [6, 7, 10**30]],
         f"vertices not covered by any cluster: {list(range(8, 18))} and {10**30 - 18} more"),
    ],
)
def test_invalid_clusters_are_an_input_error(tmp_path, capsys, clusters, message):
    doc = example_config("A")
    doc["clustering"] = {"clusters": clusters}
    path = tmp_path / "clusters.json"
    emit_config(doc, str(path))
    assert main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: clustering: {message}\n"


def test_a_cluster_size_past_the_index_range_is_an_input_error(tmp_path, capsys):
    doc = example_config("A")
    doc["clustering"] = {"sizes": [3, 3, 10**30]}
    path = tmp_path / "sizes.json"
    emit_config(doc, str(path))
    assert main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: clustering: Python int too large to convert to C ssize_t\n"


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(config_a, tmp_path):
    """The parser is cached per process: an overriding flag in one call
    must not leak into the next, and a bad flag is still a usage error."""
    assert cli_module.build_parser() is cli_module.build_parser()
    argv = ["simulate", "--config", config_a]
    assert main([*argv, "--seed", "5", "--out", str(tmp_path / "seeded")]) == 0
    with pytest.raises(SystemExit) as info:
        main([*argv, "--bogus"])
    assert info.value.code == 2
    assert main([*argv, "--out", str(tmp_path / "again")]) == 0
    fresh = _python("-m", "cclab.cli", *argv, "--out", str(tmp_path / "fresh"))
    assert fresh.returncode == 0
    metrics = [(tmp_path / d / "metrics.json").read_bytes() for d in ("seeded", "again", "fresh")]
    assert metrics[1] == metrics[2]
    assert metrics[0] != metrics[1]


@pytest.mark.parametrize(
    "path, literal, where",
    [
        (("initial_state", 0), "NaN", "initial_state/0: nan"),
        (("signal", "alphas", 1), "Infinity", "signal/alphas/1: inf"),
        (("topology", "matrix", 0, 0), "-Infinity", "topology/matrix/0/0: -inf"),
        (("thresholds", "zero"), "1e999", "thresholds/zero: inf"),
    ],
)
def test_non_finite_numbers_are_an_input_error(tmp_path, capsys, path, literal, where):
    doc = example_config("A")
    doc["initial_state"] = [0.0] * 9
    doc["thresholds"] = {}
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 12345.5  # stands in for the literal in the JSON text
    config = tmp_path / "non-finite.json"
    config.write_text(emit_config(doc).replace("12345.5", literal))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: config invalid at {where} is not a finite number\n"


def test_a_graph_that_disagrees_with_the_matrix_is_an_input_error(tmp_path, capsys):
    doc = example_config("A")
    doc["topology"]["graph"][0] = [0, 1]
    path = tmp_path / "graph.json"
    emit_config(doc, str(path))
    assert main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: config invalid at topology/graph/0: lists [0, 1],"
        " but column 0 of the matrix is positive at [0]\n"
    )


def test_a_graph_index_past_int64_is_compared_not_converted(tmp_path, capsys):
    doc = example_config("A")
    doc["topology"]["graph"][0] = [10**30]
    path = tmp_path / "graph.json"
    emit_config(doc, str(path))
    assert main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: config invalid at topology/graph/0: lists [{10**30}],"
        " but column 0 of the matrix is positive at [0]\n"
    )


def test_a_switching_graph_that_disagrees_with_its_matrix_is_an_input_error(tmp_path, capsys):
    doc = example_config("B")
    doc["topology"]["graphs"][2][3] = []
    path = tmp_path / "graphs.json"
    emit_config(doc, str(path))
    assert main(["check", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config invalid at topology/graphs/2/3: lists [],")
    assert err.count("\n") == 1


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("command", ["simulate", "report"])
def test_power_limits_run_on_the_quotient_only(command, m, tmp_path, monkeypatch):
    """The bound and every other limit on the run path iterate K-by-K
    matrices, never the n-by-n coupling."""
    doc = generated_config((40, 40, 40), seed=5, m=m, density=0.1, entry_floor=0.001, horizon=1000)
    top = doc["topology"]
    assert all("vals" in a for a in top.get("matrices", [top.get("matrix")]))  # triplet form
    path = tmp_path / "gen.json"
    emit_config(doc, str(path))
    shapes = []
    original = stochastic.power_limit

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("cclab") and getattr(module, "power_limit", None) is original:
            monkeypatch.setattr(module, "power_limit", recording)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert shapes and set(shapes) == {(3, 3)}


def _stamps(tmp_path, config, *flags):
    """``config_sha256`` of ``check --out``, ``simulate``, ``report`` and
    ``learn`` on ``config``, one run each with ``flags``."""
    stamps = []
    for command in ("check", "simulate", "report", "learn"):
        out = tmp_path / "-".join((pathlib.Path(config).stem, command, *flags))
        target = out / "check.json" if command == "check" else out
        out.mkdir()
        argv = [command, "--config", config, "--out", str(target), *flags]
        assert _in_process(argv)[0] == 0
        (record,) = [p for p in out.iterdir() if p.suffix == ".json"]
        stamps.append(json.loads(record.read_text())["config_sha256"])
    return stamps


def test_every_artifact_stamps_the_sha256_of_the_config_file(config_a, tmp_path):
    """With no override the stamp is ``sha256sum`` of the file; ``--seed``
    and ``--horizon`` append their sorted compact JSON to the bytes hashed,
    ``--theorem`` is left out, and an edit of whitespace alone moves it."""
    data = pathlib.Path(config_a).read_bytes()
    plain = hashlib.sha256(data).hexdigest()
    assert _stamps(tmp_path, config_a) == [plain] * 4
    assert _stamps(tmp_path, config_a, "--theorem", "1") == [plain] * 4
    overridden = hashlib.sha256(data + b'{"horizon":50,"seed":7}').hexdigest()
    assert _stamps(tmp_path, config_a, "--horizon", "50", "--seed", "7") == [overridden] * 4
    seeded = hashlib.sha256(data + b'{"seed":7}').hexdigest()
    assert _stamps(tmp_path, config_a, "--seed", "7") == [seeded] * 4
    spaced = tmp_path / "spaced.json"
    spaced.write_bytes(data + b"\n")
    assert _stamps(tmp_path, str(spaced)) == [hashlib.sha256(data + b"\n").hexdigest()] * 4


@pytest.mark.parametrize("command", ["check", "simulate", "report", "learn"])
def test_each_command_opens_its_config_once(config_a, tmp_path, monkeypatch, command):
    opened = []
    original = open

    def recording(file, *args, **kwargs):
        opened.append(file)
        return original(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording)
    out = tmp_path / "out"
    target = out / "check.json" if command == "check" else out
    out.mkdir()
    assert main([command, "--config", config_a, "--out", str(target)]) == 0
    assert opened.count(config_a) == 1


def _triplets(rows):
    a = np.array(rows)
    i, j = np.nonzero(a)
    return {"n": len(a), "rows": i.tolist(), "cols": j.tolist(), "vals": a[i, j].tolist()}


def _put(key, p, value):
    def edit(top):
        top["matrix"][key][p] = value

    return edit


def _repeat_entry_0_at_5(top):
    t = top["matrix"]
    t["rows"][5], t["cols"][5] = t["rows"][0], t["cols"][0]


# Example A's matrix has 17 positive entries; entry 0 is (0, 0). NaN is
# written into the JSON text in place of 12345.5.
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda top: top["matrix"]["vals"].pop(),
         "topology/matrix: rows, cols and vals have 17, 17 and 16 entries"),
        (_put("cols", 4, 9), "topology/matrix/cols/4: 9 is not below n = 9"),
        (_put("rows", 16, 10**30), f"topology/matrix/rows/16: {10**30} is not below n = 9"),
        (_put("rows", 2, -1), "topology/matrix/rows/2: -1 is less than the minimum of 0"),
        (_put("rows", 0, True), "topology/matrix/rows/0: True is not of type 'integer'"),
        (_put("cols", 1, 1.5), "topology/matrix/cols/1: 1.5 is not of type 'integer'"),
        (_repeat_entry_0_at_5, "topology/matrix: entries 0 and 5 both give (0, 0)"),
        (lambda top: top["matrix"].update(n=8), "topology/matrix/n: 8 agents, but the clustering has 9"),
        (_put("vals", 3, 12345.5), "topology/matrix/vals/3: nan is not a finite number"),
        (lambda top: top.update(matrix={"n": 9}), "topology/matrix: 'rows' is a required property"),
        (lambda top: top.update(type="sparse"),
         "topology/type: 'sparse' is not one of ['fixed', 'switching', 'generator', 'switching-generator']"),
    ],
    ids=["lengths", "index-n", "index-huge", "index-negative", "index-bool", "index-fraction",
         "duplicate", "n", "vals-nan", "n-only", "type"],
)
def test_malformed_triplets_are_an_input_error(tmp_path, capsys, edit, message):
    doc = example_config("A")
    doc["topology"]["matrix"] = _triplets(doc["topology"]["matrix"])
    edit(doc["topology"])
    path = tmp_path / "triplets.json"
    path.write_text(emit_config(doc).replace("12345.5", "NaN"))
    assert main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: config invalid at {message}\n"


def test_triplets_are_checked_against_the_graph_and_in_schedules(tmp_path, capsys):
    doc = example_config("A")
    doc["topology"]["matrix"] = _triplets(doc["topology"]["matrix"])
    path = tmp_path / "triplets.json"
    emit_config(doc, str(path))
    assert main(["check", "--config", str(path)]) == 0
    doc["topology"]["graph"][0] = [0, 1]
    emit_config(doc, str(path))
    capsys.readouterr()
    assert main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: config invalid at topology/graph/0: lists [0, 1],"
        " but column 0 of the matrix is positive at [0]\n"
    )

    doc = example_config("B")
    doc["topology"]["matrices"][1] = _triplets(doc["topology"]["matrices"][1])
    emit_config(doc, str(path))
    assert main(["check", "--config", str(path)]) == 0
    doc["topology"]["matrices"][1]["cols"][2] = 9
    emit_config(doc, str(path))
    capsys.readouterr()
    assert main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: config invalid at topology/matrices/1/cols/2: 9 is not below n = 9\n"
    )
    doc["topology"]["matrices"][1] = {"n": 9}
    emit_config(doc, str(path))
    assert main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: config invalid at topology/matrices/1: 'rows' is a required property\n"
    )


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("learning", "flags"), [[1, -1], [0], [-1, 1]], "learning/flags/1: length 1, but row 0 has length 2"),
        (("learning", "initial"), [[0.5, 0.5]] * 8 + [[1.0]], "learning/initial/8: length 1, but row 0 has length 2"),
        (("topology", "matrix", 3), [0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.0],
         "topology/matrix/3: length 8, but row 0 has length 9"),
    ],
    ids=["flags", "initial", "matrix"],
)
def test_ragged_matrices_are_an_input_error(tmp_path, capsys, path, value, message):
    doc = example_config("A")
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = tmp_path / "ragged.json"
    emit_config(doc, str(config))
    assert main(["learn", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: config invalid at {message}\n"


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _floats(value):
    if isinstance(value, dict):
        return {k: _floats(v) for k, v in value.items()}
    return [_floats(v) for v in value] if isinstance(value, list) else float(value)


def _outputs(tmp_path, capsys, command, doc, name):
    config = tmp_path / f"{name}.json"
    emit_config(doc, str(config))
    out = tmp_path / name
    out.mkdir()
    target = out / "check.json" if command == "check" else out
    code = main([command, "--config", str(config), "--out", str(target)])
    captured = capsys.readouterr()
    files = {}
    for p in sorted(out.iterdir()):
        if p.suffix == ".json":
            record = json.loads(p.read_text())
            record.pop("config_sha256")  # the hash of the file's bytes, which spell 2.0 or 2
            files[p.name] = record
        else:
            files[p.name] = p.read_bytes()
    return code, captured.out, captured.err, files


def test_a_one_matrix_switching_config_runs_as_the_fixed_coupling(tmp_path, capsys):
    """A schedule of one matrix is the fixed coupling: it takes the fixed
    defaults (claim 2, horizon 2000), claim 1 applies to it, and every
    output equals the ``fixed`` topology's, trajectory bytes included."""
    fixed = example_config("A")
    del fixed["theorem"], fixed["horizon"]
    top = fixed["topology"]
    one = {"type": "switching", "matrices": [top["matrix"]], "graphs": [top["graph"]]}
    outputs = {
        form: [
            _outputs(tmp_path, capsys, command, dict(doc, **fields), f"{form}-{command}")
            for command, fields in (("simulate", {}), ("check", {"theorem": 1}))
        ]
        for form, doc in (("fixed", fixed), ("one", dict(fixed, topology=one)))
    }
    assert outputs["one"] == outputs["fixed"]
    (code, _, _, files), checked = outputs["one"]
    assert (code, checked[0]) == (0, 0)
    assert files["metrics.json"]["hypotheses"]["claim"] == "static-consensus"
    assert files["trajectory.csv"].count(b"\n") == 2002  # a header and steps 0..2000


_SWITCHING_GENERATOR = {
    "version": 1,
    "seed": 3,
    "clustering": {"sizes": [2, 2]},
    "topology": {"type": "switching-generator"},
}


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("simulate", ("horizon",), 200),
        ("simulate", ("signal", "period"), 2),
        ("learn", ("learning", "states"), 2),
        ("learn", ("learning", "zeta"), {"clusters": [0, 2]}),
        ("learn", ("learning", "zeta"), {"state": 1}),
        ("check", ("topology", "m"), 3),
    ],
    ids=["horizon", "period", "states", "zeta-clusters", "zeta-state", "m"],
)
def test_integral_floats_run_like_integers(tmp_path, capsys, command, path, value):
    base = _SWITCHING_GENERATOR if command == "check" else dict(example_config("A"), horizon=200)
    ran = _outputs(tmp_path, capsys, command, _set(copy.deepcopy(base), path, value), "int")
    assert ran[0] == 0
    as_floats = _set(copy.deepcopy(base), path, _floats(value))
    assert _outputs(tmp_path, capsys, command, as_floats, "float") == ran


def _python(*argv, address_space=None):
    """A fresh interpreter that imports this checkout's ``cclab``, its
    address space capped at ``address_space`` bytes if given."""
    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(cclab.__file__)),
        OPENBLAS_NUM_THREADS="1",
    )

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap if address_space else None,
    )


@pytest.mark.parametrize(
    "base, path, value",
    [
        ("A", ("clustering", "sizes", 2), 10**30),
        ("A", ("clustering",), {"clusters": [[0, 1, 2], [3, 4, 5], [6, 7, 10**30]]}),
        ("A", ("topology", "type"), "sparse"),
        ("B", ("topology", "matrices", 1), {"n": 9}),
        ("A", ("learning", "zeta"), {"clusters": [0, 10**30]}),
    ],
    ids=["sizes", "clusters", "type", "n-only", "zeta"],
)
def test_bad_configs_exit_1_without_a_traceback(tmp_path, base, path, value):
    config = tmp_path / "bad.json"
    emit_config(_set(example_config(base), path, value), str(config))
    for command in ("check", "learn"):
        out = str(tmp_path / command)
        done = _python("-m", "cclab.cli", command, "--config", str(config), "--out", out)
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr


def test_the_cli_imports_no_third_party_package_but_numpy():
    done = _python(
        "-c",
        "import sys; before = set(sys.modules); import cclab.cli;"
        " loaded = {m.split('.')[0] for m in set(sys.modules) - before};"
        " print(sorted(loaded - set(sys.stdlib_module_names) - {'cclab', 'numpy'}))",
    )
    assert done.stdout == "[]\n"


_GENERATOR = {"type": "generator"}


@pytest.mark.parametrize(
    "command, edits, expected",
    [
        ("check", {("clustering", "sizes"): [3, 3, 10**9]}, "matrix size disagrees"),
        (
            "check",
            {("topology",): _GENERATOR, ("clustering", "sizes"): [3, 3, 10**9]},
            "topology: entry floor must lie in (0, 1/n]",
        ),
        ("simulate", {("horizon",): 10**9}, "out of memory"),
        ("learn", {("horizon",): 10**9}, "out of memory"),
        # Past numpy's index range, where numpy refuses the array outright.
        ("simulate", {("horizon",): 10**20}, "out of memory"),
        ("learn", {("horizon",): 10**20}, "out of memory"),
        ("simulate", {("horizon",): 2**62}, "out of memory"),
        ("learn", {("horizon",): 2**62}, "out of memory"),
        # An ensemble takes no config: the run, not one instance, ends.
        ("simulate --ensemble 2 --theorem 2 --seed 1 --horizon 100000000000000000000", None,
         "out of memory"),
    ],
    ids=[
        "sizes",
        "generator-sizes",
        "simulate-horizon",
        "learn-horizon",
        "simulate-horizon-1e20",
        "learn-horizon-1e20",
        "simulate-horizon-2^62",
        "learn-horizon-2^62",
        "ensemble-horizon-1e20",
    ],
)
def test_huge_sizes_and_horizons_exit_1_in_bounded_memory(tmp_path, command, edits, expected):
    """Run in a child whose address space is capped at 1.5 GB: the size
    must be rejected before a tuple per vertex is built (for a generator
    recipe, by its entry floor against 1/n), and the horizon's state array
    (67 GiB on A) must fail as one error line."""
    argv = command.split()
    if edits is not None:
        doc = example_config("A")
        for path, value in edits.items():
            _set(doc, path, value)
        config = tmp_path / "huge.json"
        emit_config(doc, str(config))
        argv += ["--config", str(config), "--out", str(tmp_path / command)]
    done = _python("-m", "cclab.cli", *argv, address_space=1_500_000_000)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    assert expected in done.stderr


def _in_process(argv):
    """Exit code, stdout and stderr of ``main(argv)``; the parser's exit
    status counts as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--sizes", "40,40,40", "--seed", "1"], "entry floor must lie in"),
        (["gen", "--sizes", "3,3", "--seed", "1", "--density", "1.5"], "density must lie in"),
        (["gen", "--sizes", "0,3", "--seed", "1"], "cluster sizes must be positive"),
        (["gen", "--sizes", "a,b", "--seed", "1"], "--sizes must be comma-separated integers"),
        (["gen", "--sizes", "3,3", "--seed", "-1"], "--seed must be nonnegative"),
        (["gen", "--paper-example", "A", "--seed", "-1"], "--seed must be nonnegative"),
        (["gen", "--sizes", "3,3,3", "--seed", "1", "--switching", "3", "--window", "1"],
         "window must cover"),
        (["gen", "--sizes", "3,3", "--seed", "1", "--entry-floor", "0"], "entry floor must lie in"),
        (["simulate", "--ensemble", "3", "--theorem", "2", "--seed", "-1"],
         "seed must be nonnegative"),
        (["gen", "--sizes", "3,3", "--seed", "1", "--switching", "0"], "--switching needs at least 1"),
        (["gen", "--sizes", "3,3", "--seed", "1", "--switching", "-2"], "--switching needs at least 1"),
        (["gen", "--sizes", "3,3", "--seed", "1", "--window", "0"], "window must cover"),
    ],
)
def test_bad_gen_flags_and_ensemble_seeds_exit_1_with_one_line(argv, message):
    code, _, err = _in_process(argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_a_window_covering_a_fixed_coupling_leaves_its_config_as_it_is():
    """A fixed coupling is the one-matrix schedule, so every window from 1
    on covers it and writes the config written without one; ``--window 0``
    is among the bad gen flags."""
    argv = ["gen", "--sizes", "3,3", "--seed", "1"]
    plain = _in_process(argv)
    assert plain[0] == 0
    assert _in_process([*argv, "--window", "1"]) == _in_process([*argv, "--window", "5"]) == plain


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--config", "$A", "--out", "$dir"],
        ["simulate", "--config", "$A", "--out", "$file"],
        ["report", "--config", "$A", "--out", "$file"],
        ["learn", "--config", "$A", "--out", "$file"],
        ["simulate", "--ensemble", "2", "--theorem", "2", "--seed", "1", "--out", "$dir"],
        ["gen", "--paper-example", "A", "--out", "$dir"],
    ],
    ids=["check", "simulate", "report", "learn", "ensemble", "gen"],
)
def test_an_unwritable_out_exits_1_with_one_line(tmp_path, config_a, argv, monkeypatch):
    """A file where a directory is wanted, or a directory where a file is:
    found before anything is printed, and before a config run starts."""

    def unreached(*args):
        raise AssertionError("the run started before the output path was made")

    monkeypatch.setattr(cli_module, "run", unreached)
    taken = tmp_path / "taken"
    taken.write_text("")
    paths = {"A": config_a, "dir": str(tmp_path), "file": str(taken)}
    code, out, err = _in_process([Template(a).substitute(paths) for a in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_vanishing_entry_floor_still_generates():
    code, out, err = _in_process(["gen", "--sizes", "3,3", "--seed", "1", "--entry-floor", "5e-324"])
    assert (code, err) == (0, "")
    assert json.loads(out)["clustering"] == {"sizes": [3, 3]}


def _flags(draw, options: dict) -> list[str]:
    """Each option of ``options`` as ``--name=value``, kept or left out by a
    draw, in drawn order."""
    chosen = draw(st.lists(st.sampled_from(sorted(options)), unique=True))
    return [f"{name}={draw(options[name])}" for name in chosen]


_ANY_FLOAT = st.one_of(st.floats(-0.5, 1.5), st.floats(), st.sampled_from([0.0, 1e-300, 5e-324]))
_GEN_OPTIONS = {
    "--paper-example": st.sampled_from(["A", "B", "C"]),
    "--sizes": st.one_of(
        st.lists(st.integers(-1, 4), min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs))),
        st.sampled_from(["", "a,b", "3,,3", "2.5,3"]),
    ),
    "--seed": st.integers(-2, 2**64),
    "--switching": st.integers(-1, 4),
    "--window": st.integers(-1, 5),
    "--entry-floor": _ANY_FLOAT,
    "--density": _ANY_FLOAT,
    "--mode": st.sampled_from(["random", "equal", "spread"]),
    "--horizon": st.integers(-2, 50),
}
_ENSEMBLE_OPTIONS = {
    "--theorem": st.integers(0, 5),
    "--seed": st.integers(-2, 2**64),
    "--horizon": st.integers(-2, 60),
}


_CONFIG_OPTIONS = {
    "--seed": st.integers(-2, 2**64),
    "--theorem": st.integers(0, 5),
    "--horizon": st.integers(-2, 5000),
}


@st.composite
def _argv(draw):
    """``gen``, an ensemble, or a config command on example ``$A`` or ``$B``
    writing under ``$out``; the test puts in the paths."""
    kind = draw(st.sampled_from(["gen", "ensemble", "config"]))
    if kind == "gen":
        return ["gen", *_flags(draw, _GEN_OPTIONS)]
    if kind == "ensemble":
        count = draw(st.integers(-1, 3))
        return ["simulate", f"--ensemble={count}", *_flags(draw, _ENSEMBLE_OPTIONS)]
    command = draw(st.sampled_from(["check", "simulate", "report", "learn"]))
    config = draw(st.sampled_from(["$A", "$B"]))
    out = "$out/check.json" if command == "check" else f"$out/{command}"
    return [command, "--config", config, "--out", out, *_flags(draw, _CONFIG_OPTIONS)]


@pytest.fixture(scope="module")
def example_paths(tmp_path_factory):
    work = tmp_path_factory.mktemp("argv")
    paths = {"out": str(work)}
    for name in ("A", "B"):
        paths[name] = str(work / f"{name}.json")
        emit_config(example_config(name), paths[name])
    return paths


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
def test_any_gen_or_ensemble_argv_ends_in_an_exit_code(example_paths, argv):
    """Whatever ``gen``, ensemble and config-command flags are given, the
    command ends in a documented exit code, and an input error in one
    ``error:`` line."""
    code, _, err = _in_process([Template(a).safe_substitute(example_paths) for a in argv])
    assert code in (0, 1, 2, 3, 4)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
