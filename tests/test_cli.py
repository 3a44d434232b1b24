import json
from pathlib import Path

import jsonschema
import pytest

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


def test_plan_counts(capsys):
    code = main(["plan", "3"])
    assert code == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert report["n_settings"] == 8


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


def test_lemmas_command_small(capsys):
    code = main(["lemmas", "--cutoff", "16", "--thetas", "0.3,0.8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_lemmas_cutoff_guard(capsys):
    assert main(["lemmas", "--cutoff", "100"]) == 1
    capsys.readouterr()


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


def test_flags_only_where_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "3", "--reps", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
