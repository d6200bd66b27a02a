"""Acceptance gate: one test per criterion, exact (zero-tolerance) checks,
each bounded by its stated wall-clock budget, all read from one run of the
"all" suite, whose deterministic report is the regression anchor. Run with -s
to see the per-criterion pass/fail lines."""

import pytest

from gform_lab.suites import CHECKS, SuiteConfig, run_suite

CONFIG = SuiteConfig(seed=1, conductor_bound=100)

# artifact_hash of `gform-lab propcheck all --seed 1`
ARTIFACT_HASH = "bff19dd50eec5ad37c621876c1460f21a49cbc42bab413202b5dd14110fb40bc"

CRITERIA = [
    # (check id, human label, budget in seconds)
    ("C1", "Stickelberger integrality iff kernel membership", 30.0),
    ("C2", "twist equivariance of the Stickelberger map", 10.0),
    ("C3", "transpose image lands in the strict self-dual class", 30.0),
    ("C4", "resolvend pairing identity", 60.0),
    ("C5", "square root of the inverse different, full corpus", 120.0),
    ("C6", "self-dual generator witnesses", 300.0),
    ("C7", "inverse law instances (conductors 7, 13)", 60.0),
    ("C8", "product law instance (conductor 91)", 600.0),
    ("C9", "resolvent-ratio factorization with branch witness", 120.0),
    ("C10", "Fourier inversion vs regular representation oracle", 30.0),
]


@pytest.fixture(scope="module")
def report():
    return run_suite("all", CONFIG)


@pytest.mark.parametrize("check_id,label,budget", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(report, check_id, label, budget):
    (result,) = [c for c in report.checks if c.check_id == check_id]
    print(f"criterion {check_id} [{label}]: {result.status.upper()} ({result.elapsed:.2f}s)")
    assert result.passed, f"criterion {check_id} failed: {result.details}"
    assert result.elapsed < budget, (
        f"criterion {check_id} exceeded its {budget}s budget ({result.elapsed:.2f}s)"
    )


def test_report_artifact_hash_is_pinned(report):
    assert report.core_json()["artifact_hash"] == ARTIFACT_HASH


def test_every_criterion_is_covered():
    assert [c[0] for c in CRITERIA] == list(CHECKS)
