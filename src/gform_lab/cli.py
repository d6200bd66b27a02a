"""Command-line surface: pairing tables, field reports, witness searches,
composite product reports, property suites, and the conductor sieve.

Every command can emit a deterministic JSON document (--json to stdout,
--out FILE to write it). Exit codes: 0 success; 1 a check failed or no
witness was found; 2 rejected input (also argparse's code); 3 a cyclotomic
level above GFORM_LAB_MAX_LEVEL. Library errors are reported as one line on
stderr, never a traceback. `selfdual` reports a cap hit in its Fourier
checks instead of exiting 3: the resolvents and the Stickelberger
factorization check both work at level p*f, so one guard covers both, and
the report gives `fourier_resolvents` as {"skipped": <message>} and both
factorization checks as null.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import gforms, linalg
from . import resolvends as rsv
from . import stickelberger as stk
from .arith import unit_group_generators
from .cyclotomic import LevelBoundError, max_level
from .groups import EnumerationBoundError, FiniteAbelianGroup, GroupSpecError
from .number_fields import (
    FieldConstructionError,
    build_field,
    different,
    dual_lattice,
    sqrt_inverse_different,
    trace_gram,
)
from .suites import SUITES, SuiteConfig, run_suite, sieve_conductors


def _emit(doc: dict, args) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if getattr(args, "json", False) or not getattr(args, "out", None):
        print(text)


def _frac(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def cmd_stickelberger(args) -> int:
    G = FiniteAbelianGroup.from_spec(args.group)
    pairs = []
    for chi in G.characters():
        for s in G.elements():
            u = stk.upsilon(chi, s)
            pairs.append(
                {
                    "chi": list(chi.exponents),
                    "s": list(s.exponents),
                    "upsilon": u,
                    "pairing": _frac(stk.pairing_char(chi, s)),
                }
            )
    basis = stk.det_kernel_basis(G)
    rng = SuiteConfig(seed=args.seed).rng("table")
    gens = unit_group_generators(G.exponent)
    checks = {
        "integrality_matches_kernel": stk.integrality_certificate(G).to_json(),
        "twist_equivariance": stk.equivariance_check(G, gens),
        "transpose_self_dual": all(
            stk.image_selfdual_check(stk.EquivariantMap.random_map(G, rng)) for _ in range(10)
        ),
    }
    doc = {
        "group": list(G.invariant_factors),
        "pairs": pairs,
        "s_hat_basis": [list(psi.coeffs) for psi in basis],
        "checks": checks,
    }
    _emit(doc, args)
    passed = (
        checks["integrality_matches_kernel"]["lattice_equals_kernel"]
        and checks["twist_equivariance"]
        and checks["transpose_self_dual"]
    )
    return 0 if passed else 1


def cmd_field(args) -> int:
    K = build_field(args.degree, args.conductor)
    d = different(K)
    A = sqrt_inverse_different(K)
    doc = {
        "degree": K.degree,
        "conductor": K.conductor,
        "ramified_primes": list(K.ramified_primes),
        "generator": K.generator,
        "periods": [
            sorted(c * k % K.conductor for k in K.subgroup) for c in K.cosets
        ],
        "mult_table": [[list(entry) for entry in row] for row in K.mult_table],
        "gram": [list(r) for r in K.gram],
        "different_hnf": d.to_json(),
        "A_hnf": A.to_json(),
        "checks": {
            "disc": K.discriminant,
            "disc_expected": K.conductor ** (K.degree - 1),
            "A_squared_is_inverse_different": A * A == d.inverse(),
            "A_self_dual": dual_lattice(A) == A,
            "gram_det_A": _frac(linalg.det(trace_gram(K, A.basis_elements()))),
        },
    }
    _emit(doc, args)
    return 0


def cmd_selfdual(args) -> int:
    K = build_field(args.degree, args.conductor)
    try:
        w, a = gforms.self_dual_generator(K)
    except gforms.WitnessNotFound:
        doc = {"degree": args.degree, "conductor": args.conductor, "witness_coords": None}
        _emit(doc, args)
        return 1
    r = rsv.resolvend(a)
    # both work on the Fourier values at level p*f, so one cap hit skips both
    try:
        fourier_resolvents = {
            str(chi): v.to_json() for chi, v in rsv.resolvent_values(a).items()
        }
        factorization = (
            rsv.stickelberger_factorization_check(a) if len(K.ramified_primes) == 1 else None
        )
    except LevelBoundError as exc:
        fourier_resolvents, factorization = {"skipped": str(exc)}, None
    doc = {
        "degree": args.degree,
        "conductor": args.conductor,
        "witness_coords": list(w.coords),
        "orbit_matrix": [list(r_) for r_ in w.orbit_matrix],
        "gram_check": w.verify(),
        "lattice_check": gforms.is_self_dual_generator(a, sqrt_inverse_different(K)),
        "resolvend_coeffs": r.to_json(),
        "fourier_resolvents": fourier_resolvents,
        "reduced_form": rsv.reduced_resolvend(a).representative.to_json(),
        "checks": {
            "nbg": rsv.is_normal_basis_generator(a),
            "selfdual": rsv.is_self_dual(a),
            "factorization": factorization.passed if factorization else None,
            "branch_witness": list(factorization.witness.exponents)
            if factorization and factorization.witness
            else None,
        },
    }
    _emit(doc, args)
    return 0


def cmd_compose(args) -> int:
    f1, f2 = args.conductors
    law = gforms.product_law(build_field(args.degree, f1), build_field(args.degree, f2))
    doc = {
        "degree": args.degree,
        "conductors": [f1, f2],
        "composite_conductor": law.composite.conductor,
        "factor_witnesses": [list(w.coords) for w in law.witnesses],
        "product_alpha": law.element.alpha.to_json(),
        "self_dual": law.self_dual,
        "generates_A": law.holds,
        "status": "pass" if law.holds else "fail",
    }
    _emit(doc, args)
    return 0 if law.holds else 1


def cmd_propcheck(args) -> int:
    config = SuiteConfig(
        seed=args.seed,
        conductor_bound=args.max,
        include_timings=args.timings,
    )
    report = run_suite(args.suite, config)
    doc = report.to_json()
    for check in report.checks:
        line = f"[{check.status.upper():4}] {check.check_id} {check.name}"
        if args.timings:
            line += f" ({check.elapsed:.2f}s)"
        print(line, file=sys.stderr)
    _emit(doc, args)
    return 0 if report.passed else 1


def cmd_corpus(args) -> int:
    doc = {
        "degree": args.degree,
        "max": args.max,
        "conductors": sieve_conductors(args.degree, args.max),
    }
    _emit(doc, args)
    return 0


def _conductor_pair(text: str) -> tuple[int, int]:
    try:
        f1, f2 = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expects two comma-separated integers") from None
    return f1, f2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gform-lab",
        description="exact-arithmetic lab for trace forms on square roots of inverse differents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stickelberger", help="pairing table and kernel basis for a group")
    p.add_argument("verb", nargs="?", default="table", choices=["table"])
    p.add_argument("--group", required=True, help='invariant factors, e.g. "3,9"')
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_stickelberger)

    p = sub.add_parser("field", help="period-field report for one conductor")
    p.add_argument("verb", nargs="?", default="analyze", choices=["analyze"])
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--conductor", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("selfdual", help="search a self-dual generator of (A, trace)")
    p.add_argument("verb", nargs="?", default="search", choices=["search"])
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--conductor", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_selfdual)

    p = sub.add_parser("compose", help="product-law report for two coprime conductors")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--conductors", required=True, type=_conductor_pair, help='e.g. "7,13"')
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("propcheck", help="run a property suite")
    p.add_argument("suite", nargs="?", default="all", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max", type=int, default=100, help="conductor bound for field sweeps")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_propcheck)

    p = sub.add_parser("corpus", help="admissible squarefree conductors up to a bound")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--max", type=int, default=100)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_corpus)

    return parser


def _error(exc: Exception, code: int) -> int:
    print(f"gform-lab: error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        max_level()
    except ValueError as exc:  # a malformed GFORM_LAB_MAX_LEVEL
        return _error(exc, 2)
    try:
        return args.fn(args)
    except (FieldConstructionError, GroupSpecError, EnumerationBoundError) as exc:
        return _error(exc, 2)
    except LevelBoundError as exc:
        return _error(exc, 3)
    except gforms.WitnessNotFound as exc:
        return _error(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
