"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE ITEM_LIMIT_S
    python3 perfbench/worker.py --setup-only

The parent starts this with gform_lab's source directory on PYTHONPATH. It
writes ``ready`` as soon as ``import gform_lab`` has returned, so the parent
can time set-up from launch. Then it rebuilds the seed's items, runs them
one at a time, checks every verdict, and writes one JSON line with the
pass's timings, digests, failures and, with TRACE 1, the per-layer trace.
"""

import sys

if __name__ == "__main__":
    # Set-up is timed up to this signal, so nothing else is imported first.
    import gform_lab

    sys.stdout.write("ready\n")
    sys.stdout.flush()

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402

import gform_lab as gl  # noqa: E402
from gform_lab.arith import unit_group_generators  # noqa: E402

import items as item_lists  # noqa: E402
from tracer import Tracer  # noqa: E402


class ItemTimeout(Exception):
    pass


class VerdictFailed(Exception):
    """The library returned a false verdict or disagreed with its oracle."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise VerdictFailed(message)


def run_invert(item) -> str:
    """try_invert must agree with the regular-representation solve, also
    when neither can invert."""
    G = gl.FiniteAbelianGroup(tuple(item["group"]))
    gamma = gl.GroupRingElement(G, dict(zip(G.elements(), item["coeffs"])))
    try:
        inv = gl.try_invert(gamma)
    except gl.NotInvertible:
        inv = None
    try:
        oracle = gl.invert_by_linear_solve(gamma)
    except gl.NotInvertible:
        oracle = None
    if inv is None and oracle is None:
        return "singular"
    _expect(inv is not None and oracle is not None, "only one route inverts")
    _expect(inv == oracle, "try_invert disagrees with invert_by_linear_solve")
    _expect(inv * gamma == gl.GroupRingElement.one(G), "inverse times element is not 1")
    return "unit " + item_lists.digest(inv.to_json())


def run_selfdual(item) -> str:
    (m,) = item["group"]
    G = gl.FiniteAbelianGroup((m,))
    reps = {d: gl.CyclotomicNumber(d, coeffs) for d, coeffs in item["values"]}
    values = {}
    for s in G.elements():
        e = s.exponents[0]
        d = s.order()
        # s = g^((m/d) w) with w a unit mod d carries sigma_{w^-1}(x_d)
        w = e // (m // d)
        values[s] = reps[d].galois(pow(w, -1, d)) if d > 1 else reps[1]
    f = gl.EquivariantMap(G, values, acting_generators=unit_group_generators(m))
    _expect(gl.image_selfdual_check(f) is True, "transpose image is not self-dual")
    return "selfdual"


def run_field(item) -> str:
    p, f = item["degree"], item["conductor"]
    K = gl.build_field(p, f)
    d = gl.different(K)
    A = gl.sqrt_inverse_different(K)
    form = gl.gform_from_A(K)
    w = gl.find_self_dual_generator(form)
    _expect(K.discriminant == f ** (p - 1), "discriminant is not f^(p-1)")
    _expect(A * A == d.inverse(), "A*A is not the inverse different")
    _expect(gl.dual_lattice(A) == A, "A is not self-dual")
    _expect(w is not None, "no self-dual generator found")
    _expect(w.verify() is True, "witness fails IsometryWitness.verify")
    a = gl.witness_element(form, w)
    _expect(gl.is_self_dual_generator(a, A) is True, "witness is not a self-dual generator of A")
    return "field " + item_lists.digest([A.to_json(), w.to_json()])


def run_pairing(item) -> str:
    K = gl.build_field(3, item["conductor"])
    G = gl.FiniteAbelianGroup((3,))
    hom = gl.HomToG(K, G, G.element((item["sigma"],)))
    a = gl.AlgebraElement(hom, K.element(item["a"]))
    b = gl.AlgebraElement(hom, K.element(item["b"]))
    _expect(gl.resolvend_pairing_identity(a, b) is True, "pairing identity fails")
    return "pairing"


def run_inverse_law(item) -> str:
    K = gl.build_field(3, item["conductor"])
    _expect(gl.verify_inverse_law(K) is True, "inverse law fails")
    return "inverse_law"


def run_weak_mult(item) -> str:
    f1, f2 = item["conductors"]
    ok = gl.verify_weak_multiplicativity(gl.build_field(3, f1), gl.build_field(3, f2))
    _expect(ok is True, "weak multiplicativity fails")
    return "weak_mult"


def run_factorization(item) -> str:
    K = gl.build_field(3, item["conductor"])
    form = gl.gform_from_A(K)
    w = gl.find_self_dual_generator(form)
    _expect(w is not None, "no self-dual generator found")
    result = gl.stickelberger_factorization_check(gl.witness_element(form, w))
    _expect(result.passed, "resolvent ratio does not factor")
    return f"factorization {list(result.witness.exponents)}"


RUNNERS = {
    "invert": run_invert,
    "selfdual": run_selfdual,
    "field": run_field,
    "pairing": run_pairing,
    "inverse_law": run_inverse_law,
    "weak_mult": run_weak_mult,
    "factorization": run_factorization,
}


def _on_alarm(signum, frame):
    raise ItemTimeout


def run_pass(workload: str, seed: int, trace: bool, item_limit: float) -> dict:
    todo = item_lists.make_items(workload, seed)
    tracer = Tracer() if trace else None
    verdicts = []
    failures = []
    signal.signal(signal.SIGALRM, _on_alarm)
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    c0 = time.process_time()
    for i, item in enumerate(todo):
        signal.setitimer(signal.ITIMER_REAL, item_limit)
        try:
            verdict = RUNNERS[item["kind"]](item)
        except ItemTimeout:
            verdict = f"timeout after {item_limit} s"
        except Exception as exc:  # a raising item is a failure, never the end of the pass
            verdict = f"{type(exc).__name__}: {exc}"
        else:
            verdict = "ok " + verdict
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not verdict.startswith("ok "):
            failures.append({"index": i, "item": item, "error": verdict})
        verdicts.append([i, item["kind"], verdict])
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    if tracer:
        tracer.uninstall()
    return {
        "items": len(todo),
        "item_digest": item_lists.digest(todo),
        "verdict_digest": item_lists.digest(verdicts),
        "failures": failures,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "gform_lab_file": gl.__file__,
        "trace": tracer.snapshot() if tracer else None,
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--setup-only"]:
        workload, seed, trace, item_limit = sys.argv[1:]
        result = run_pass(workload, int(seed), trace == "1", float(item_limit))
        sys.stdout.write(json.dumps(result) + "\n")
