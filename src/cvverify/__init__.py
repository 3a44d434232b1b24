"""Verification of bosonic Gaussian channels via average-fidelity witnesses.

A desk-scale simulator for verifier-vs-prover channel certification games:
Gaussian phase-space evolution, homodyne Monte-Carlo sampling, witness
estimators with rigorous sample budgets, and an independent truncated-Fock
oracle that validates every operator identity the estimators rely on.
"""

from .channels import AmplificationTarget, ProverChannel, average_fidelity, optimal_amplifier
from .gaussian import GaussianChannel, GaussianState
from .measurement import HomodyneSetting, build_measurement_plan
from .protocols import (
    SampleBudget,
    Verdict,
    VerificationConfig,
    lemma3_sample_count,
    run_state_verification,
    run_verification,
    witness_analytic,
)
from .symplectic import SymplecticSpec

__all__ = [
    "AmplificationTarget",
    "GaussianChannel",
    "GaussianState",
    "HomodyneSetting",
    "ProverChannel",
    "SampleBudget",
    "SymplecticSpec",
    "Verdict",
    "VerificationConfig",
    "average_fidelity",
    "build_measurement_plan",
    "lemma3_sample_count",
    "optimal_amplifier",
    "run_state_verification",
    "run_verification",
    "witness_analytic",
]

__version__ = "0.1.0"
