import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvverify import fock
from cvverify.cli import main

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src/cvverify/schemas/report.schema.json").read_text()
)


@pytest.fixture
def scenario(tmp_path):
    data = {
        "name": "honest-identity",
        "config": {
            "protocol": "unitary", "lam": 1.0, "F_t": 0.9, "delta": 0.25,
            "epsilon": 0.04,
            "target": {"m": 1, "S": [1, 0, 0, 1], "d": [0, 0]},
        },
        "prover": {"kind": "ExactUnitary",
                   "spec": {"m": 1, "S": [1, 0, 0, 1], "d": [0, 0]}},
        "repetitions": 3,
        "seed": 11,
        "shot_cap": 4000,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path, data


def test_verify_report_matches_schema(scenario, tmp_path, capsys):
    path, _ = scenario
    code = main(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["accept_rate"] >= 0.75
    capsys.readouterr()


def test_verify_same_seed_identical_report(scenario, capsys):
    path, _ = scenario
    main(["verify", "--config", str(path)])
    first = capsys.readouterr().out
    main(["verify", "--config", str(path)])
    second = capsys.readouterr().out
    assert first == second


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad)]) == 1
    bad.write_text("[1, 2]")  # valid JSON, but not a scenario object
    assert main(["budget", "--config", str(bad)]) == 1
    capsys.readouterr()


def test_config_invariant_exit_code(scenario, tmp_path, capsys):
    path, data = scenario
    data["config"]["epsilon"] = 0.2  # outside (0, (1-F_t)/2)
    bad = tmp_path / "bad_eps.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(bad)])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("lam, code", [
    (1e-16, 2),  # infinite TMSV squeezing: a config error naming lam
    (1e-14, 0),  # finite, with a near-singular measured covariance
])
def test_tiny_lam(scenario, tmp_path, capsys, lam, code):
    _, data = scenario
    data["config"]["lam"], data["repetitions"], data["shot_cap"] = lam, 1, 1000
    path = tmp_path / "tiny_lam.json"
    path.write_text(json.dumps(data))
    try:
        got = main(["verify", "--config", str(path)])
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert capsys.readouterr().err == ("" if code == 0 else f"config error: lam = {lam:g} is too small: "
                                       "the TMSV squeezing arctanh(1/sqrt(lam+1)) is infinite\n")


@pytest.mark.parametrize("command", ["budget", "verify"])
def test_unknown_config_field_exit_code(scenario, tmp_path, command, capsys):
    # a typo'd sigma2 used to be dropped, budgeting for sigma2 = 1
    path, data = scenario
    data["config"]["sigma_2"] = 50
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(bad)])
    assert exc.value.code == 2
    assert "config error: unknown config fields: 'sigma_2'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "oracle"])
@pytest.mark.parametrize("where, typo, value", [("prover", "excesss", 0.5), ("scenario", "shotcap", 100)])
def test_unknown_prover_and_scenario_field_exit_code(scenario, tmp_path, command, where, typo, value,
                                                     capsys):
    # a typo'd excess used to run an honest prover, a typo'd shot_cap an uncapped run
    path, data = scenario
    data["prover"] = {"kind": "NoisyUnitary", "spec": data["prover"]["spec"]}
    (data["prover"] if where == "prover" else data)[typo] = value
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(bad)])
    assert exc.value.code == 2
    assert f"config error: unknown {where} fields: '{typo}'" in capsys.readouterr().err


def test_prover_field_its_kind_does_not_set_exit_code(scenario, tmp_path, capsys):
    # an ExactUnitary with excess 0.3 used to give analytic_omega 0.7 against
    # fock_omega 1.0, its noise read by realize() and dropped by the Fock factors
    path, data = scenario
    data["prover"]["excess"] = 0.3
    bad = tmp_path / "unread.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--config", str(bad), "--cutoff", "6"])
    assert exc.value.code == 2
    assert "config error: ExactUnitary takes no 'excess'" in capsys.readouterr().err


@pytest.mark.parametrize("where, value", [
    (("prover", "modes"), 1.9), (("prover", "modes"), True), (("prover", "modes"), "1.5"),
    (("prover", "modes"), "two"), (("prover", "modes"), math.inf), (("config", "target", "m"), 1.7),
    (("state", "modes"), 1.5), (("repetitions",), 2.9), (("seed",), 0.5), (("shot_cap",), True),
])
def test_non_integer_count_exit_code(scenario, tmp_path, where, value, capsys):
    # each used to be truncated: 1.9 modes to one, 2.9 repetitions to two
    path, data = scenario
    data["prover"] = {"kind": "AdditiveNoise", "variance": 0.1, "modes": 1}
    data["state"] = dict(COHERENT)
    node = data
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    bad = tmp_path / "count.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(bad)])
    assert exc.value.code == 2
    assert f"config error: '{where[-1]}' must be an integer, got {value!r}" in capsys.readouterr().err


# Each object of a scenario: where it sits, a typo'd key in it, and a number
# field of it given a bool.
OBJECTS = [
    ("config", ("config",), "sigma_2", "lam", True),
    ("target", ("config", "target"), "dd", "d", [True, 0]),
    ("prover", ("prover",), "excesss", "eta", True),
    ("state", ("state",), "covv", "mean", [0.3, True]),
    ("scenario", (), "shotcap", "seed", True),
]


@pytest.mark.parametrize("command", ["verify", "budget"])
@pytest.mark.parametrize("what, where, typo, number, value", OBJECTS, ids=[o[0] for o in OBJECTS])
def test_every_scenario_object_is_read_by_one_rule(scenario, tmp_path, command, what, where, typo, number, value,
                                                   capsys):
    # budget used to read only the config, and every object but the config, a
    # prover and the scenario itself dropped an unknown key; a bool number was
    # read as 0 or 1, so "eta": true verified the identity channel
    _, data = scenario
    data["prover"] = {"kind": "Attenuator", "eta": 0.8, "excess": 0.05}
    data["state"] = dict(COHERENT)
    for key, bad, message in ((typo, 0.5, f"unknown {what} fields: '{typo}'"),
                              (number, value, f"'{number}' must be ")):
        edited = json.loads(json.dumps(data))
        node = edited
        for step in where:
            node = node[step]
        node[key] = bad
        path = tmp_path / f"{what}.json"
        path.write_text(json.dumps(edited))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == 2
        assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("name", 5, "'name' must be a string, got 5"),  # gave a report that fails the schema
    ("shot_cap", 0, "shot_cap must be at least 1, got 0"),  # ended in "shot budget c4 must be positive"
    ("shot_cap", -3, "shot_cap must be at least 1, got -3"),
])
def test_scenario_run_value_exit_code(scenario, tmp_path, key, value, message, capsys):
    _, data = scenario
    data[key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("config", ["abc", [1], 3])
def test_config_not_an_object_exit_code(scenario, tmp_path, config, capsys):
    path, data = scenario
    data["config"] = config
    bad = tmp_path / "not_an_object.json"
    bad.write_text(json.dumps(data))
    assert main(["budget", "--config", str(bad)]) == 1
    assert "config must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("protocol", ["unitary", "state"])
def test_zero_mode_target_exit_code(scenario, tmp_path, protocol, capsys):
    path, data = scenario
    data["config"].update(protocol=protocol, target={"m": 0, "S": [], "d": []})
    data["state"] = COHERENT
    bad = tmp_path / "zero_modes.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(bad)])
    assert exc.value.code == 2
    assert "config error: target S must be square" in capsys.readouterr().err


def test_schema_config_matches_the_config_fields():
    from cvverify.protocols import VerificationConfig

    schema_keys = set(SCHEMA["$defs"]["verdict"]["properties"]["config"]["properties"])
    written = {game: VerificationConfig.from_dict(c).to_dict() for game, c in GAME_CONFIGS.items()}
    assert schema_keys == set().union(*written.values())
    # each game's config reads back from its own keys, and from no other key
    for game, data in written.items():
        assert VerificationConfig.from_dict(data).to_dict() == data, game
        with pytest.raises(ValueError, match="unknown config fields: 'k'"):
            VerificationConfig.from_dict({**data, "k": 1})


def test_plan_counts(capsys):
    code = main(["plan", "3"])
    assert code == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert set(report) == {"m", "n_settings", "settings"}  # no coverage table
    assert report["m"] == 3 and report["n_settings"] == 8
    q, p, h, none = 0.0, math.pi / 2, math.pi / 4, [None] * 3
    expected = [([q] * 6, "q(A')+q(R)"), ([p] * 6, "p(A')+p(R)"),
                ([q] * 3 + [p] * 3, "q(A')+p(R)"), ([p] * 3 + [q] * 3, "p(A')+q(R)"),
                ([h] * 3 + none, "45deg(A')")]
    expected += [([q if k == j else p for k in range(3)] + none, f"q(A'_{j})+p(A'_rest)")
                 for j in range(3)]
    assert [(s["angles"], s["label"]) for s in report["settings"]] == expected
    assert [s["id"] for s in report["settings"]] == list(range(8))
    assert "setting  4  [0.785, 0.785, 0.785, -, -, -]  45deg(A')" in out.splitlines()


def test_budget_command(scenario, capsys):
    path, _ = scenario
    assert main(["budget", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "channel uses" in out


def test_oracle_command(scenario, capsys):
    path, _ = scenario
    assert main(["oracle", "--config", str(path), "--cutoff", "14"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert report["analytic_omega"] == pytest.approx(1.0, abs=1e-10)
    assert report["fock_omega"] == pytest.approx(1.0, abs=1e-3)
    assert report["witness_below_fidelity"]


def test_oracle_report_ignores_the_seed(scenario, tmp_path, capsys):
    """The oracle draws nothing: scenarios that differ only in their seed
    print the same bytes, and the command takes no --seed."""
    _, data = scenario
    data["prover"] = {"kind": "AdditiveNoise", "variance": 0.2}
    outs = []
    for seed in (0, 12345):
        path = tmp_path / f"seed{seed}.json"
        path.write_text(json.dumps({**data, "seed": seed}))
        assert main(["oracle", "--config", str(path), "--cutoff", "14"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["true_fidelity"] == pytest.approx(1.0 / 1.2, abs=1e-12)
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--config", str(path), "--seed", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_oracle_above_the_dense_cap(tmp_path, capsys):
    """A squeezed, displaced target at cutoff 96, past the c <= 64 a dense
    c^2 x c^2 witness allowed: the Fock witness meets the analytic one."""
    target = {"m": 1, "S": [float(np.exp(0.8)), 0, 0, float(np.exp(-0.8))], "d": [0.3, -0.2]}
    prover = {"m": 1, "S": [float(np.exp(0.7)), 0, 0, float(np.exp(-0.7))], "d": [0.3, -0.2]}
    data = {"config": {"protocol": "unitary", "lam": 1.0, "F_t": 0.5, "delta": 0.25, "epsilon": 0.02,
                       "target": target},
            "prover": {"kind": "ExactUnitary", "spec": prover}, "seed": 3}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["oracle", "--config", str(path), "--cutoff", "96"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert report["fock_cutoff"] == 96
    assert abs(report["fock_omega"] - report["analytic_omega"]) <= 1e-3


def test_lemmas_command_small(capsys):
    code = main(["lemmas", "--cutoff", "16", "--thetas", "0.3,0.8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def _start_after_the_cutoff_check(monkeypatch):
    """Make fock's cutoff check raise _Started once a cutoff passes it, so an
    accepted cutoff is seen without any Fock work."""
    from cvverify import fock

    check = fock.check_cutoff

    def checked(cutoff, name="cutoff"):
        check(cutoff, name)
        raise _Started

    monkeypatch.setattr(fock, "check_cutoff", checked)


def _assert_refused(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""  # no report
    assert f"config error: {message}" in err


def test_lemmas_cutoff_guard(monkeypatch, capsys):
    # fock.g_theta, the first Fock call of lemmas, refuses a cutoff outside
    # [2, 256] before any array is formed (np.arange(10^12) among them); the
    # damping suite once ran up to c = 2364
    _start_after_the_cutoff_check(monkeypatch)
    with pytest.raises(_Started):
        main(["lemmas", "--cutoff", "256"])
    for cutoff in ("257", "300", "2364", "1000000000000"):
        _assert_refused(["lemmas", "--cutoff", cutoff], f"cutoff must lie in [2, 256], got {cutoff}", capsys)


def _no_report(monkeypatch):
    from cvverify import protocols

    def no_report(*args, **kwargs):
        raise AssertionError("oracle_report ran for a refused input")

    monkeypatch.setattr(protocols, "oracle_report", no_report)


@pytest.mark.parametrize("lam, cutoff, code", [(0.05, None, 2), (1.0, "257", 2), (1e-20, None, 2)])
def test_oracle_cutoff_guard(scenario, tmp_path, monkeypatch, capsys, lam, cutoff, code):
    # lam = 0.05 needs the default cutoff 284, which the error names with the
    # bound of 256 (it once read "got 284", a cutoff the user never gave);
    # --cutoff 257 is one over the bound, and lam = 1e-20 has no finite
    # cutoff: each stops before the oracle report
    _no_report(monkeypatch)
    _, data = scenario
    data["config"]["lam"] = lam
    path = tmp_path / "small_lam.json"
    path.write_text(json.dumps(data))
    argv = ["oracle", "--config", str(path)] + (["--cutoff", cutoff] if cutoff else [])
    message = {1e-20: "lam = 1e-20 is too small",
               0.05: "lam = 0.05 needs cutoff 284 to keep the TMSV leakage below 1e-6, above the largest, 256; "
                     "pass --cutoff"}.get(lam, f"cutoff must lie in [2, 256], got {cutoff}")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    assert out == "" and f"config error: {message}" in err


@pytest.mark.filterwarnings("ignore:gain g=")
@pytest.mark.parametrize("config, prover", [
    ({"target": {"m": 1, "S": [1.2, 0.3, 0.1, 0.8583333333333334], "d": [0.2, -0.1]}},
     {"kind": "NoisyUnitary", "excess": 0.05, "spec": {"m": 1, "S": [1.2, 0.3, 0.1, 0.8583333333333334], "d": [0.2, -0.1]}}),
    ({"protocol": "amplification", "g": 2.0, "F_t": 0.3, "target": None},
     {"kind": "NoisyAmplifier", "g": 1.1, "excess": 0.1}),
], ids=["noisy-unitary", "noisy-amplifier"])
def test_oracle_fock_numbers_are_the_same_cold_and_warm(scenario, tmp_path, capsys, config, prover):
    """The Fock numbers of ``oracle`` are the same bit for bit in a fresh
    interpreter, whose memo is empty, and on a cold and a warm call in
    process: a kept value is the value a build gives."""
    _, data = scenario
    data["config"] = {k: v for k, v in {**data["config"], **config}.items() if v is not None}
    data["prover"] = prover
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(data))
    fields = ("fock_omega", "fock_state_leakage")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(__file__).parent.parent / "src"),
                                                        os.environ.get("PYTHONPATH", "")])}
    fresh = subprocess.run([sys.executable, "-m", "cvverify.cli", "oracle", "--config", str(path)],
                           capture_output=True, text=True, timeout=60, env=env)
    assert fresh.returncode == 0, fresh.stderr
    reports = [json.loads(fresh.stdout)]
    fock._MEMO.clear()
    for _ in range(2):  # a cold call, then a warm one
        assert main(["oracle", "--config", str(path)]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert len({tuple(float.hex(r[f]) for f in fields) for r in reports}) == 1


@pytest.mark.parametrize("cutoff", ["0", "1", "-3"])
def test_oracle_rejects_cutoff_below_two(scenario, monkeypatch, capsys, cutoff):
    # --cutoff 0 once read as unset and ran at the default cutoff (20 at lam = 1)
    _no_report(monkeypatch)
    path, _ = scenario
    _assert_refused(["oracle", "--config", str(path), "--cutoff", cutoff],
                    f"cutoff must lie in [2, 256], got {cutoff}", capsys)


@pytest.mark.parametrize("cutoff", ["0", "14", "9999"])
def test_oracle_refuses_cutoff_on_two_modes(scenario, tmp_path, monkeypatch, capsys, cutoff):
    # the Fock check runs at m = 1 only, so --cutoff on m = 2 once passed unread
    _no_report(monkeypatch)
    _, data = scenario
    spec = {"m": 2, "S": np.eye(4).ravel().tolist(), "d": [0.0] * 4}
    data["config"]["target"], data["prover"]["spec"] = spec, spec
    path = tmp_path / "two_modes.json"
    path.write_text(json.dumps(data))
    _assert_refused(["oracle", "--config", str(path), "--cutoff", cutoff],
                    "--cutoff sets the Fock cross-check, which runs at m = 1 only; this scenario has m = 2", capsys)
    monkeypatch.undo()
    assert main(["oracle", "--config", str(path)]) == 0
    assert "fock_omega" not in json.loads(capsys.readouterr().out)


class _Started(Exception):
    """Raised in place of the oracle's first piece of work."""


QLA = {"kind": "QuantumLimitedAmplifier", "g": 1.25, "modes": 1}
NOISY_UNITARY = {"kind": "NoisyUnitary", "spec": {"m": 1, "S": [1, 0, 0, 1], "d": [0, 0]}, "excess": 0.1}


@pytest.mark.parametrize("protocol, prover, cutoff, accepted", [
    # one bound, c <= 256, whichever form the path holds: the amplification
    # game in n1 - n2 sectors once ran to c = 293, though its transfer blocks
    # hold c^3 entries
    ("amplification", QLA, 256, True),
    ("amplification", QLA, 257, False),
    ("amplification", QLA, 293, False),
    ("amplification", QLA, 294, False),
    # a unitary factor's amplitude form or the unitary witness's frame
    ("amplification", NOISY_UNITARY, 256, True),
    ("amplification", NOISY_UNITARY, 257, False),
    ("unitary", QLA, 256, True),
    ("unitary", QLA, 257, False),
], ids=["sectors-256", "sectors-257", "sectors-293", "sectors-294", "unitary-factor-256",
        "unitary-factor-257", "unitary-witness-256", "unitary-witness-257"])
def test_oracle_cutoff_cap_follows_the_path(tmp_path, monkeypatch, capsys,
                                            protocol, prover, cutoff, accepted):
    _no_report(monkeypatch)
    _start_after_the_cutoff_check(monkeypatch)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"config": GAME_CONFIGS[protocol], "prover": prover, "seed": 3}))
    argv = ["oracle", "--config", str(path), "--cutoff", str(cutoff)]
    if accepted:
        with pytest.raises(_Started):
            main(argv)
    else:
        _assert_refused(argv, f"cutoff must lie in [2, 256], got {cutoff}", capsys)


@pytest.mark.parametrize("prover", [None, QLA], ids=["no-prover", "prover"])
def test_oracle_refuses_the_state_game(tmp_path, monkeypatch, capsys, prover):
    # without a prover this exited 1 ("oracle requires a prover")
    _no_report(monkeypatch)
    data = {"config": GAME_CONFIGS["state"], "state": COHERENT, **({"prover": prover} if prover else {})}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    _assert_refused(["oracle", "--config", str(path)], "oracle checks a prover channel's witness", capsys)


@pytest.mark.filterwarnings("error")
def test_oracle_refuses_the_plan_before_any_fock_work(tmp_path, capsys):
    # the amplification plan refuses g = 1e150, whose epsilon shares leave the
    # float range; the oracle once built the Fock witness and output first, and
    # the prover's squeezer warned of truncation leakage 1.00e+00
    config = {"protocol": "amplification", "lam": 1.0, "F_t": 1e-301, "delta": 0.25, "epsilon": 1e-302,
              "g": 1e150}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"config": config, "prover": {"kind": "QuantumLimitedAmplifier", "g": 1e150}}))
    _assert_refused(["oracle", "--config", str(path)],
                    "gain g = 1e+150 is too large: an epsilon share of its plan leaves the float range", capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_names_the_prover_whose_output_leaves_the_float_range(scenario, capsys):
    # X cov X^T overflows for S = diag(1e155, 1e-155); it once warned of an
    # overflow in matmul and then named only the output state's covariance
    path, data = scenario
    data["prover"]["spec"]["S"] = [1e155, 0, 0, 1e-155]
    path.write_text(json.dumps(data))
    _assert_refused(["verify", "--config", str(path)],
                    "prover ExactUnitary's channel, X of norm 1e+155, gives no output state: state cov has an "
                    "entry that is not finite", capsys)


@pytest.mark.parametrize("points", ["0", "-2"])
def test_sweep_refuses_fewer_than_one_point(scenario, capsys, points):
    # --points 0 once printed an empty sweep and exited 0
    path, _ = scenario
    _assert_refused(["sweep", "--config", str(path), "--points", points],
                    f"--points must be at least 1, got {points}", capsys)


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_prover_on_zero_modes_exit_code(scenario, tmp_path, capsys, command):
    # refused where the prover is read, not where its modes are first used
    path, data = scenario
    data["prover"] = {"kind": "AdditiveNoise", "variance": 0.1, "modes": 0}
    path.write_text(json.dumps(data))
    _assert_refused([command, "--config", str(path)], 'n_modes ("modes") must be at least 1, got 0', capsys)


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
@pytest.mark.parametrize("command, d, prover, extra", [
    ("oracle", 1e300, None, []),  # analytic omega -inf
    ("oracle", 1e150, None, ["--cutoff", "6"]),  # analytic finite, Fock omega NaN
    ("verify", 0.0, {"kind": "AdditiveNoise", "variance": 1e308}, []),  # omega* NaN
])
def test_non_finite_results_exit_2(scenario, tmp_path, capsys, command, d, prover, extra):
    _, data = scenario
    data["config"]["target"]["d"] = [d, 0]
    data["prover"] = prover or data["prover"]
    data["repetitions"], data["shot_cap"] = 1, 10
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path)] + extra)
    assert exc.value.code == 2
    assert "is not finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning", "ignore:two-mode squeezer truncation leakage")
@pytest.mark.parametrize("command", ["budget", "verify", "oracle", "sweep"])
@pytest.mark.parametrize("config, prover, message", [
    ({"target": {"m": 1, "S": [1e155, 0, 0, 1e-155], "d": [0, 0]}}, None,
     "target S, of norm 1e+155, is too large: an epsilon share of its plan leaves the float range"),
    ({"protocol": "amplification", "F_t": 1e-300, "epsilon": 1e-301, "target": None, "g": 1e150},
     {"kind": "QuantumLimitedAmplifier", "g": 1e150, "modes": 1},
     "gain g = 1e+150 is too large: an epsilon share of its plan leaves the float range"),
])
def test_a_huge_target_or_gain_exits_2_naming_it(scenario, tmp_path, capsys, command, config, prover, message):
    # |S|^2 and g^4 in the epsilon shares of the plan once escaped as a bare
    # OverflowError (exit 1), the first after RuntimeWarnings from S^-T S^-1
    _, data = scenario
    data["config"] = {key: value for key, value in {**data["config"], **config}.items() if value is not None}
    data["prover"] = prover or data["prover"]
    data["repetitions"], data["shot_cap"] = 1, 10
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    argv = [command, "--config", str(path)] + (["--cutoff", "6"] if command == "oracle" else [])
    _assert_refused(argv, message, capsys)


@pytest.mark.parametrize("where", ["config", "prover"])
@pytest.mark.parametrize("field, bad", [("S", math.nan), ("d", math.inf)])
def test_a_non_finite_spec_exits_2_naming_the_field(scenario, tmp_path, capsys, where, field, bad):
    # json.load reads NaN; a prover's NaN spec once reached the Fock oracle and
    # failed there as "SVD did not converge"
    path, data = scenario
    spec = data["config"]["target"] if where == "config" else data["prover"]["spec"]
    spec[field][0] = bad
    path.write_text(json.dumps(data))
    for command in ("verify", "oracle"):
        _assert_refused([command, "--config", str(path)], f"target {field} has an entry that is not finite", capsys)


@pytest.mark.parametrize("flag, value", [("--v-max", "-1"), ("--v-min", "-0.5"), ("--v-max", "inf"),
                                         ("--v-min", "nan")])
def test_sweep_refuses_a_bad_variance_before_the_first_row(scenario, capsys, flag, value):
    # --v-min 0.5 --v-max -1 --points 2 once printed the v = 0.5 row, then exited 2
    path, _ = scenario
    argv = ["sweep", "--config", str(path), "--v-min", "0.5", "--v-max", "0.5", "--points", "2", flag, value]
    _assert_refused(argv, f"{flag} must be finite and nonnegative, got {float(value)}", capsys)


def test_sweep_csv(scenario, tmp_path, capsys):
    path, _ = scenario
    code = main([
        "sweep", "--config", str(path), "--reps", "2", "--points", "3",
        "--format", "csv", "--out", str(tmp_path / "sw"),
    ])
    assert code == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "variance,accept_rate,analytic_omega"
    assert len(lines) == 4
    capsys.readouterr()


def test_sweep_csv_without_out_is_refused(scenario, monkeypatch, capsys):
    # the CSV asked for was silently replaced by the JSON report on stdout
    from cvverify import protocols

    monkeypatch.setattr(protocols, "accept_rate", lambda *args, **kwargs: pytest.fail("a verdict ran"))
    path, _ = scenario
    _assert_refused(["sweep", "--config", str(path), "--format", "csv"],
                    "--format csv writes sweep.csv into the --out directory, and no --out is given", capsys)


GAME_CONFIGS = {
    "unitary": {"protocol": "unitary", "lam": 1.0, "F_t": 0.9, "delta": 0.25, "epsilon": 0.04,
                "target": {"m": 1, "S": [1, 0, 0, 1], "d": [0.3, 0]}},
    "amplification": {"protocol": "amplification", "lam": 1.0, "F_t": 0.25, "delta": 0.25,
                      "epsilon": 0.03, "g": 2.5},
    "state": {"protocol": "state", "lam": 1.0, "F_t": 0.9, "delta": 0.25, "epsilon": 0.04,
              "target": {"m": 1, "S": [1, 0, 0, 1], "d": [0.3, 0]}},
}


@pytest.mark.parametrize("protocol", sorted(GAME_CONFIGS))
@pytest.mark.parametrize("command", ["verify", "oracle", "sweep", "budget"])
def test_every_command_on_every_game_exits_cleanly(command, protocol, tmp_path, capsys):
    data = {"config": GAME_CONFIGS[protocol],
            "prover": {"kind": "QuantumLimitedAmplifier", "g": 1.25, "modes": 1},
            "repetitions": 1, "seed": 3, "shot_cap": 500}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    argv = [command, "--config", str(path)]
    if command == "sweep":
        argv += ["--points", "2"]
    if command == "oracle":
        argv += ["--cutoff", "14"]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if protocol == "state" and command != "budget":
        # the state game verifies a supplied state, not a prover channel
        assert code == 2 and "config error:" in err


COHERENT = {"modes": 1, "mean": [0.3, 0.0], "cov": [0.5, 0.0, 0.0, 0.5]}


@pytest.mark.parametrize("protocol, argv", [
    ("state", ["verify"]), ("state", ["budget"]), ("unitary", ["sweep", "--points", "2"]),
    (None, ["plan", "2"]), (None, ["lemmas", "--cutoff", "30"]),
], ids=["verify", "budget", "sweep", "plan", "lemmas"])
def test_a_closed_pipe_exits_1_without_a_traceback(protocol, argv, tmp_path):
    """``cvverify verify ... | head -c 50``: a reader that closes stdout before
    the command writes ends it with exit 1 and nothing on stderr.  The broken
    pipe is caught around the command, which writes its text lines and its
    report before it returns, and stdout then points at the null device, so
    the interpreter's exit flush does not raise again."""
    if protocol is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"config": GAME_CONFIGS[protocol], "state": COHERENT,
                                    "prover": {"kind": "ExactUnitary", "spec": GAME_CONFIGS["unitary"]["target"]},
                                    "repetitions": 200, "seed": 5, "shot_cap": 20_000}))
        argv = [*argv, "--config", str(path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(__file__).parent.parent / "src"),
                                                        os.environ.get("PYTHONPATH", "")])}
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run([sys.executable, "-m", "cvverify.cli", *argv], stdout=write, stderr=subprocess.PIPE,
                             text=True, timeout=60, env=env)
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (1, "")


@pytest.mark.parametrize("state, code, result", [
    (COHERENT, 0, 1.0),  # the pure target U_{S,d}|0> itself: omega = 1
    ({"modes": 1, "mean": [0.3, 0.0], "cov": [1.0, 0.0, 0.0, 1.0]}, 0, 0.0),  # thermal: omega = 1/2
    ({"modes": 2, "mean": [0.3, 0.0, 0.0, 0.0], "cov": np.eye(4).ravel().tolist()}, 2,
     "state has 2 modes, the state game measures 1"),
    # below the vacuum variance: no quantum state, though its witness would exceed 1
    ({"modes": 1, "mean": [0.3, 0.0], "cov": [0.1, 0.0, 0.0, 0.1]}, 2,
     "the supplied state violates the uncertainty relation"),
    ({"modes": 0, "mean": [], "cov": []}, 2, "state mean must have positive even length"),
    # json.load reads NaN; it once ran the game and failed as an uncertainty violation
    ({"modes": 1, "mean": [0.3, 0.0], "cov": [math.nan, 0.0, 0.0, 0.5]}, 2,
     "state cov has an entry that is not finite"),
    ({"modes": 1, "mean": [0.3, math.inf], "cov": [0.5, 0.0, 0.0, 0.5]}, 2,
     "state mean has an entry that is not finite"),
])
def test_verify_runs_the_state_game(state, code, result, tmp_path, capsys):
    from cvverify import protocols
    from cvverify.gaussian import GaussianState

    data = {"config": GAME_CONFIGS["state"], "state": state, "repetitions": 3, "seed": 5,
            "shot_cap": 20_000}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    try:
        got = main(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    if code == 2:
        assert f"config error: {result}" in err
        return
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["accept_rate"] == result
    cfg = protocols.VerificationConfig.from_dict(data["config"])
    for seed, verdict in zip(range(5, 8), report["verdicts"]):
        lib = protocols.run_state_verification(GaussianState.from_dict(state), cfg, seed, 20_000)
        assert verdict["omega_star"] == lib.omega_star


@pytest.mark.parametrize("protocol, t2", [("unitary", 1.0 / 2.0), ("amplification", 2.0 / 2.5**2)])
def test_oracle_reports_squeezer_leakage(protocol, t2, tmp_path, capsys):
    # tanh^2 of the witness squeezer's angle is 1/(lam+1) for the unitary
    # witness and (lam+1)/g^2 for the amplification witness
    data = {"config": GAME_CONFIGS[protocol],
            "prover": {"kind": "QuantumLimitedAmplifier", "g": 1.25, "modes": 1}, "seed": 3}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["oracle", "--config", str(path), "--cutoff", "14"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert report["fock_squeezer_leakage"] == pytest.approx(t2**14, rel=1e-12)


def test_flags_only_where_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "3", "--reps", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_one_parser_per_process_and_the_command_read_at_call_time(monkeypatch, capsys):
    """Two commands build one parser; a command replaced on the module (as
    a tracer or a test replaces it) is the one that runs."""
    from cvverify import cli

    cli.build_parser.cache_clear()
    assert main(["plan", "1"]) == 0 and main(["plan", "2"]) == 0
    assert cli.build_parser.cache_info().misses == 1
    capsys.readouterr()
    ran = []
    monkeypatch.setattr(cli, "cmd_plan", lambda args: ran.append(args.m) or 7)
    assert main(["plan", "3"]) == 7 and ran == [3]
    assert cli.build_parser.cache_info().misses == 1


# (argv, the config error it prints); "SCENARIO" stands for the scenario fixture's file
INVALID_ARGUMENTS = [
    (["plan", "0"], "m must be at least 1"),
    (["lemmas", "--cutoff", "1"], "cutoff must lie in [2, 256], got 1"),
    (["lemmas", "--thetas", "abc"], "could not convert string to float: 'abc'"),
    # a negative seed ended in numpy's "expected non-negative integer"
    (["verify", "--config", "SCENARIO", "--seed", "-5"], "seed must be at least 0, got -5"),
    (["sweep", "--config", "SCENARIO", "--seed", "-1", "--points", "1"], "seed must be at least 0, got -1"),
    (["sweep", "--config", "SCENARIO", "--reps", "0", "--points", "1"], "repetitions must be at least 1, got 0"),
]


@pytest.mark.parametrize("argv, message", INVALID_ARGUMENTS, ids=[f"argv{n}" for n in range(len(INVALID_ARGUMENTS))])
def test_invalid_argument_values_exit_2(argv, message, scenario, capsys):
    path, _ = scenario
    with pytest.raises(SystemExit) as exc:
        main([str(path) if a == "SCENARIO" else a for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"config error: {message}\n")


def test_closed_form_suite_compares_blocks_to_the_dense_maximum(tmp_path, monkeypatch, capsys):
    """The closed-form suite reads no dense matrix (it read two c^2 x c^2
    matrices per gain), and its block maximum is the dense maximum."""
    from cvverify import fock

    def no_dense(op):
        raise AssertionError("lemmas read a dense matrix")

    with monkeypatch.context() as patch:
        patch.setattr(fock.FockOperator, "matrix", property(no_dense))
        assert main(["lemmas", "--cutoff", "14", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = [r for r in json.loads((tmp_path / "lemmas.json").read_text())["results"] if r["suite"] == "closed-form"]
    assert [(r["g"], r["cutoff"]) for r in rows] == [(1.0, 14), (2.0, 14)]
    for r in rows:
        O = fock.canonical_observable(r["g"], r["lam"], 14).matrix
        C = fock.canonical_observable_closed_form(r["g"], r["lam"], 14).matrix
        assert r["max_deviation"] == float(np.max(np.abs(O - C))), r


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
def test_damping_suite_matches_dense_eigenvalues(tmp_path, capsys):
    # the suite reads the minimum off the diagonals; the dense matrix it stands
    # for is G (x) G - (1 - (n (x) 1 + 1 (x) n) / cosh^2 theta)
    cutoff, thetas = 10, (0.1, 0.5, 1.0, 2.0)
    main(["lemmas", "--cutoff", str(cutoff), "--thetas", ",".join(map(str, thetas)),
          "--out", str(tmp_path)])
    capsys.readouterr()
    rows = json.loads((tmp_path / "lemmas.json").read_text())["results"]
    got = {r["theta"]: r["min_eigenvalue"] for r in rows
           if r["suite"] == "damping-inequality" and r["m"] == 2}
    assert sorted(got) == list(thetas)
    eye = np.eye(cutoff)
    n = np.diag(np.arange(cutoff, dtype=float))
    for theta in thetas:
        G = np.diag(np.tanh(theta) ** (2 * np.arange(cutoff)))
        lhs = np.kron(G, G) - (np.eye(cutoff**2) - (np.kron(n, eye) + np.kron(eye, n))
                               / np.cosh(theta) ** 2)
        assert got[theta] == pytest.approx(np.linalg.eigvalsh(lhs).min(), abs=1e-12)


# Scenario fuzz: bad values anywhere in a valid scenario.  The shot cap stays
# finite and repetitions stay small, so every draw is a bounded run.
BAD = [math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, 0, -1, "abc", None, [1], {}, True]
RUN_BAD = [math.inf, -math.inf, math.nan, 0, -1, "abc", None, [1], {}]
TWO_MODE_TARGET = {"m": 2, "S": np.eye(4).ravel().tolist(), "d": [0.0] * 4}
TWO_MODE_STATE = {"modes": 2, "mean": [0.0] * 4, "cov": (0.5 * np.eye(4)).ravel().tolist()}
FIELDS = [("config", k) for k in ("protocol", "lam", "F_t", "delta", "epsilon", "sigma1",
                                  "sigma2", "g", "target", "sigma_2", "k")]
FIELDS += [("config", "target", k) for k in ("m", "S", "d")]
FIELDS += [("prover", k) for k in ("kind", "g", "eta", "excess", "variance", "modes", "spec",
                                   "excesss")]
FIELDS += [("state",)] + [("state", k) for k in ("modes", "mean", "cov")]
edit = st.one_of(
    st.tuples(st.sampled_from(FIELDS),
              st.one_of(st.sampled_from(BAD + [TWO_MODE_TARGET, TWO_MODE_STATE]), st.floats(),
                        st.integers(-3, 3))),
    st.tuples(st.sampled_from([("repetitions",), ("seed",), ("shot_cap",), ("shotcap",)]),
              st.sampled_from(RUN_BAD)),
)
PROVERS = [{"kind": "QuantumLimitedAmplifier", "g": 1.25, "modes": 1},
           {"kind": "Attenuator", "eta": 0.8, "excess": 0.05},
           {"kind": "NoisyUnitary", "spec": {"m": 1, "S": [1, 0, 0, 1], "d": [0, 0]}, "excess": 0.1}]


@pytest.mark.filterwarnings("ignore:two-mode squeezer truncation leakage")
@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["verify", "budget", "oracle"]),
       protocol=st.sampled_from(sorted(GAME_CONFIGS)), prover=st.sampled_from(PROVERS),
       edits=st.lists(edit, min_size=1, max_size=3))
def test_scenario_fuzz_exits_with_a_code(command, protocol, prover, edits):
    data = {"config": json.loads(json.dumps(GAME_CONFIGS[protocol])),
            "prover": json.loads(json.dumps(prover)), "state": json.loads(json.dumps(COHERENT)),
            "repetitions": 1, "seed": 3, "shot_cap": 200}
    for path, value in edits:
        node = data
        for key in path[:-1]:
            node = node.setdefault(key, {}) if isinstance(node.get(key, {}), dict) else {}
        node[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(data))
        argv = [command, "--config", str(path)] + (["--cutoff", "6"] if command == "oracle" else [])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert "config error:" in err.getvalue()
    unknown = sorted({"sigma_2", "k"} & set(data["config"]))
    if unknown:  # named before any value is read
        assert code == 2
        assert f"unknown config fields: {', '.join(map(repr, unknown))}" in err.getvalue()
    typos = [(where, key) for where, key, node in (("scenario", "shotcap", data),
                                                    ("prover", "excesss", data["prover"]))
             if key in node]
    if not unknown and typos and all(p[0] != "config" for p, _ in edits):
        # after a valid config, the scenario keys and then the prover keys are
        # checked, in every command
        assert code == 2
        assert "unknown {} fields: '{}'".format(*typos[0]) in err.getvalue()
