"""Named check suites, deterministic JSON reports, and the conductor sieve.

Every acceptance-grade property of the package is addressable through
exactly one suite; a suite runs its checks with RNG streams derived from the
single config seed, so identical configs produce byte-identical reports (the
opt-in timing block is the only nondeterministic part and stays outside the
hashed core).
"""

from __future__ import annotations

import hashlib
import json
import random
import time

from .arith import factorize, is_prime, is_squarefree, unit_group_generators
from .groups import FiniteAbelianGroup
from . import stickelberger as stk
from . import group_ring as gr
from . import gforms
from . import resolvends as rsv
from .number_fields import HomToG, build_field, different, dual_lattice, sqrt_inverse_different, trace_gram
from . import linalg
from .record import Record

SCHEMA_VERSION = 1

ACCEPTANCE_GROUPS = [(3,), (5,), (7,), (9,), (3, 3)]
WITNESS_CONDUCTORS_DEG3 = (7, 13, 19, 31, 37, 43)


class SuiteConfig(Record):
    __slots__ = ("seed", "conductor_bound", "groups", "include_timings")

    def __init__(self, seed: int = 1, conductor_bound: int = 100,
                 groups: tuple[tuple[int, ...], ...] = tuple(ACCEPTANCE_GROUPS),
                 include_timings: bool = False):
        for field, value in zip(self.__slots__, (seed, conductor_bound, groups, include_timings)):
            object.__setattr__(self, field, value)

    def rng(self, check_id: str) -> random.Random:
        return random.Random(f"{self.seed}:{check_id}")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "conductor_bound": self.conductor_bound,
            "groups": [list(g) for g in self.groups],
            "tolerance": "exact",
        }


class CheckResult(Record):
    __slots__ = ("check_id", "name", "status", "details", "elapsed")
    __hash__ = None  # details is a dict

    def __init__(self, check_id: str, name: str, status: str, details: dict,
                 elapsed: float = 0.0):
        for field, value in zip(self.__slots__, (check_id, name, status, details, elapsed)):
            object.__setattr__(self, field, value)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "id": self.check_id,
            "name": self.name,
            "status": self.status,
            "details": self.details,
        }


class Report(Record):
    """A suite's results; `run_suite` appends to the `checks` list."""

    __slots__ = ("suite", "config", "checks")
    __hash__ = None  # checks is a list

    def __init__(self, suite: str, config: SuiteConfig, checks: list[CheckResult] | None = None):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "checks", [] if checks is None else checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def core_json(self) -> dict:
        body = {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "config": self.config.to_json(),
            "checks": [c.to_json() for c in self.checks],
            "status": "pass" if self.passed else "fail",
        }
        digest = hashlib.sha256(
            json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        body["artifact_hash"] = digest
        return body

    def to_json(self) -> dict:
        body = self.core_json()
        if self.config.include_timings:
            body["timings"] = {c.check_id: round(c.elapsed, 6) for c in self.checks}
        return body

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()


def sieve_conductors(degree: int, bound: int) -> list[int]:
    """Squarefree integers up to the bound, coprime to the degree, all of
    whose prime factors are 1 mod degree."""
    if not is_prime(degree) or degree == 2:
        raise ValueError(f"degree {degree} must be an odd prime")
    out = []
    for f in range(3, bound + 1):
        if f % degree == 0 or not is_squarefree(f):
            continue
        facs = factorize(f)
        if not facs:
            continue
        if all((ell - 1) % degree == 0 for ell, _ in facs):
            out.append(f)
    return out


# ---------------------------------------------------------------------------
# acceptance checks


def check_stickelberger_integrality(config: SuiteConfig) -> tuple[str, dict]:
    details = {}
    status = "pass"
    for facs in config.groups:
        cert = stk.integrality_certificate(FiniteAbelianGroup(facs))
        details[str(cert.group)] = cert.to_json()
        if not cert.holds:
            status = "fail"
    return status, details


def check_equivariance(config: SuiteConfig) -> tuple[str, dict]:
    details = {}
    status = "pass"
    for facs in [(7,), (9,)]:
        G = FiniteAbelianGroup(facs)
        gens = unit_group_generators(G.exponent)
        ok = stk.equivariance_check(G, gens)
        details[str(G)] = {"generators": list(gens), "ok": ok}
        if not ok:
            status = "fail"
    return status, details


def check_image_selfdual(config: SuiteConfig) -> tuple[str, dict]:
    rng = config.rng("C3")
    details = {}
    status = "pass"
    for facs in [(3,), (7,)]:
        G = FiniteAbelianGroup(facs)
        bad = 0
        for _ in range(100):
            f = stk.EquivariantMap.random_map(G, rng)
            if not stk.image_selfdual_check(f):
                bad += 1
        details[str(G)] = {"maps": 100, "failures": bad}
        if bad:
            status = "fail"
    return status, details


def check_resolvend_pairing(config: SuiteConfig) -> tuple[str, dict]:
    rng = config.rng("C4")
    details = {}
    status = "pass"
    for f in (7, 13):
        K = build_field(3, f)
        hom = HomToG.standard(K)
        bad = 0
        for _ in range(100):
            a = rsv.AlgebraElement(hom, K.element([rng.randrange(-9, 10) for _ in range(3)]))
            b = rsv.AlgebraElement(hom, K.element([rng.randrange(-9, 10) for _ in range(3)]))
            if not rsv.resolvend_pairing_identity(a, b):
                bad += 1
        details[f"conductor_{f}"] = {"pairs": 100, "failures": bad}
        if bad:
            status = "fail"
    return status, details


def check_sqrt_inverse_different(config: SuiteConfig) -> tuple[str, dict]:
    details = {}
    status = "pass"
    targets = [(3, f) for f in sieve_conductors(3, config.conductor_bound)] + [(5, 11)]
    for p, f in targets:
        K = build_field(p, f)
        d = different(K)  # internally checks Hilbert formula vs trace dual
        A = sqrt_inverse_different(K)  # internally checks A*A = dual(O) = d^{-1}
        entry = {
            "disc": K.discriminant,
            "disc_expected": f ** (p - 1),
            "A_squared_is_inverse_different": A * A == d.inverse(),
            "A_self_dual": dual_lattice(A) == A,
            # different() raises unless the Hilbert exponents match the
            # trace dual, so reaching this line certifies the comparison
            "hilbert_equals_trace_dual": True,
            "gram_det_A": str(linalg.det(trace_gram(K, A.basis_elements()))),
            "gram_det_O": str(linalg.det([list(r) for r in K.gram])),
        }
        ok = (
            entry["A_squared_is_inverse_different"]
            and entry["A_self_dual"]
            and entry["gram_det_A"] == "1"
            and entry["gram_det_O"] == str(f ** (p - 1))
            and K.discriminant == f ** (p - 1)
        )
        entry["ok"] = ok
        if not ok:
            status = "fail"
        details[f"deg{p}_cond{f}"] = entry
    return status, details


def check_selfdual_witnesses(config: SuiteConfig) -> tuple[str, dict]:
    details = {}
    status = "pass"
    targets = [(3, f) for f in WITNESS_CONDUCTORS_DEG3] + [(5, 11)]
    for p, f in targets:
        K = build_field(p, f)
        try:
            w, a = gforms.self_dual_generator(K)
        except gforms.WitnessNotFound:
            status = "fail"
            details[f"deg{p}_cond{f}"] = {"found": False}
            continue
        reverified = gforms.is_self_dual_generator(a, sqrt_inverse_different(K))
        details[f"deg{p}_cond{f}"] = {"found": True, "reverified": reverified, **w.to_json()}
        if not reverified:
            status = "fail"
    return status, details


def check_inverse_law(config: SuiteConfig) -> tuple[str, dict]:
    details = {}
    status = "pass"
    for f in (7, 13):
        K = build_field(3, f)
        ok = gforms.verify_inverse_law(K)
        details[f"conductor_{f}"] = {"ok": ok}
        if not ok:
            status = "fail"
    return status, details


def check_weak_multiplicativity(config: SuiteConfig) -> tuple[str, dict]:
    K7 = build_field(3, 7)
    K13 = build_field(3, 13)
    ok = gforms.verify_weak_multiplicativity(K7, K13)
    return ("pass" if ok else "fail"), {"conductors": [7, 13], "composite": 91, "ok": ok}


def check_factorization(config: SuiteConfig) -> tuple[str, dict]:
    details = {}
    status = "pass"
    for f in (7, 13):
        K = build_field(3, f)
        try:
            _, a = gforms.self_dual_generator(K)
        except gforms.WitnessNotFound:
            status = "fail"
            details[f"conductor_{f}"] = {"witness_found": False}
            continue
        result = rsv.stickelberger_factorization_check(a)
        details[f"conductor_{f}"] = {
            "passed": result.passed,
            "branch_witness": list(result.witness.exponents) if result.witness else None,
        }
        if not result.passed:
            status = "fail"
    return status, details


def check_inversion_oracle(config: SuiteConfig) -> tuple[str, dict]:
    rng = config.rng("C10")
    details = {}
    status = "pass"
    for facs in [(3,), (7,), (9,)]:
        G = FiniteAbelianGroup(facs)
        done = 0
        mismatches = 0
        attempts = 0
        while done < 200:
            attempts += 1
            gamma = gr.GroupRingElement(
                G, {s: rng.randrange(-9, 10) for s in G.elements()}
            )
            try:
                inv = gr.try_invert(gamma)
            except gr.NotInvertible:
                continue
            oracle = gr.invert_by_linear_solve(gamma)
            if not (inv == oracle and inv * gamma == gr.GroupRingElement.one(G)):
                mismatches += 1
            done += 1
        details[str(G)] = {"tested": done, "attempts": attempts, "mismatches": mismatches}
        if mismatches:
            status = "fail"
    return status, details


# check id -> (report name, check function)
CHECKS = {
    "C1": ("stickelberger_integrality_iff_kernel", check_stickelberger_integrality),
    "C2": ("stickelberger_twist_equivariance", check_equivariance),
    "C3": ("transpose_image_is_self_dual", check_image_selfdual),
    "C4": ("resolvend_pairing_identity", check_resolvend_pairing),
    "C5": ("sqrt_inverse_different_construction", check_sqrt_inverse_different),
    "C6": ("self_dual_generator_witnesses", check_selfdual_witnesses),
    "C7": ("inverse_law_instances", check_inverse_law),
    "C8": ("product_law_conductor_91", check_weak_multiplicativity),
    "C9": ("resolvent_ratio_factorization", check_factorization),
    "C10": ("fourier_vs_regular_representation_inversion", check_inversion_oracle),
}

SUITES = {
    "stickelberger": ["C1", "C2", "C3"],
    "resolvend": ["C4", "C10"],
    "fields": ["C5"],
    "gform": ["C6"],
    "theorem11": ["C7", "C8"],
    "factorization": ["C9"],
    "all": list(CHECKS),
}


def run_check(check_id: str, config: SuiteConfig) -> CheckResult:
    """Run one check; a check that raises yields status "error" with the
    exception's type and message, never the end of the suite."""
    name, fn = CHECKS[check_id]
    t0 = time.perf_counter()
    try:
        status, details = fn(config)
    except Exception as exc:
        status, details = "error", {"error": f"{type(exc).__name__}: {exc}"}
    return CheckResult(check_id, name, status, details, time.perf_counter() - t0)


def run_suite(name: str, config: SuiteConfig | None = None) -> Report:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    config = config or SuiteConfig()
    report = Report(suite=name, config=config)
    for check_id in SUITES[name]:
        report.checks.append(run_check(check_id, config))
    return report
