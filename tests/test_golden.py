"""Fixed-seed verdicts pinned bit for bit to ``golden_verdicts.json``.

The file holds, for the unitary and state games at m = 1..4, each with a
zero and a nonzero displacement, and for the amplification game: omega* as
``float.hex``, the diagnostics' terms and shots, and the budget's counts,
raw values and channel uses, for verdicts capped at 1e4 shots and uncapped,
at seeds 0 and 7; and each config's exact witness on the measured state.
A change to the plan, the compile or the draw that moves any of these bits
fails here.  After a deliberate change to the numbers, rewrite the file
with ``PYTHONPATH=src python tests/test_golden.py`` and say why in the
change's notes.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cvverify import gaussian as ga, protocols, symplectic as sp
from cvverify.channels import ProverChannel, optimal_amplifier

GOLDEN = Path(__file__).with_name("golden_verdicts.json")
SEEDS, CAPS = (0, 7), (10_000, None)


def _games():
    """(name, cfg, measured state) for every golden config, in file order."""
    for m in (1, 2, 3, 4):
        for d_scale in (0.0, 0.3):
            spec = sp.random_symplectic(m, r_max=0.3, d_scale=d_scale, rng=np.random.default_rng(m))
            cfg = protocols.VerificationConfig("unitary", lam=1.0, F_t=0.8, delta=0.25, epsilon=0.03,
                                               target=spec)
            prover = ProverChannel("NoisyUnitary", spec=spec, excess=0.05)
            yield f"unitary-m{m}-d{d_scale}", cfg, protocols.output_state(prover, cfg)
            scfg = protocols.VerificationConfig("state", lam=1.0, F_t=0.8, delta=0.25, epsilon=0.03,
                                                target=spec)
            yield (f"state-m{m}-d{d_scale}", scfg,
                   ga.GaussianState(spec.d, 0.5 * spec.S @ spec.S.T + 0.02 * np.eye(2 * m)))
    acfg = protocols.VerificationConfig("amplification", lam=1.0, F_t=0.25, delta=0.25, epsilon=0.03, g=2.5)
    yield "amplification", acfg, protocols.output_state(optimal_amplifier(2.5, 1.0), acfg)


def _record(cfg, state) -> dict:
    """The golden record of one config: its exact witness on ``state`` and
    its verdicts at every (cap, seed)."""
    second = state.cov + np.outer(state.mean, state.mean)
    verdicts = {}
    for cap in CAPS:
        for seed in SEEDS:
            v = protocols.run_state_verification(state, cfg, seed, cap)
            verdicts[f"cap={cap} seed={seed}"] = {
                "omega_star": v.omega_star.hex(),
                "terms": [t.hex() for t in v.diagnostics["terms"]],
                "shots": v.diagnostics["shots"],
                "counts": v.budget.counts,
                "raw": {k: r.hex() for k, r in v.budget.raw.items()},
                "channel_uses": v.budget.channel_uses,
            }
    return {"exact_omega": cfg.witness_form.value(state.mean, second).hex(), "verdicts": verdicts}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


GAMES = {name: (cfg, state) for name, cfg, state in _games()}


@pytest.mark.parametrize("name", list(GAMES))
def test_verdicts_equal_the_golden_file(golden, name):
    got, want = _record(*GAMES[name]), golden[name]
    assert got["verdicts"] == want["verdicts"]
    exact, pinned = float.fromhex(got["exact_omega"]), float.fromhex(want["exact_omega"])
    assert abs(exact - pinned) <= 1e-14 * abs(pinned)


def test_golden_file_covers_every_config(golden):
    assert list(golden) == list(GAMES)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: _record(*game) for name, game in GAMES.items()}, indent=1) + "\n")
