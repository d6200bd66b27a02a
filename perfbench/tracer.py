"""Per-layer spans around gform_lab's public functions, installed from outside
the package.

Each traced function is wrapped once, and the wrapper replaces the original
wherever gform_lab holds a reference to it: in module globals, which covers
names imported with ``from .module import name``, and in class dicts, which
covers aliases such as ``__rmul__ = __mul__``. `Tracer.uninstall` puts every
original back. Layers are named after the modules.

For each traced function the tracer records the number of calls, the busy
time (inclusive, outermost call of that function only) and the self time
(span duration minus the time covered by spans of other traced functions
called inside it). A few counts are taken at the same boundaries.
"""

from __future__ import annotations

import sys
from functools import lru_cache, wraps
from time import perf_counter

# (layer metric prefix, gform_lab module, attribute path in that module)
TRACED = (
    ("cyclotomic.mul", "cyclotomic", "CyclotomicNumber.__mul__"),
    ("cyclotomic.add", "cyclotomic", "CyclotomicNumber.__add__"),
    ("cyclotomic.galois", "cyclotomic", "CyclotomicNumber.galois"),
    ("cyclotomic.inverse", "cyclotomic", "CyclotomicNumber.inverse"),
    ("cyclotomic.raise_level", "cyclotomic", "CyclotomicNumber.raise_level"),
    ("group_ring.fourier", "group_ring", "fourier"),
    ("group_ring.fourier_inverse", "group_ring", "fourier_inverse"),
    ("group_ring.try_invert", "group_ring", "try_invert"),
    ("group_ring.invert_by_linear_solve", "group_ring", "invert_by_linear_solve"),
    ("group_ring.mul", "group_ring", "GroupRingElement.__mul__"),
    ("stickelberger.det_kernel_basis", "stickelberger", "det_kernel_basis"),
    ("stickelberger.stickelberger_map", "stickelberger", "stickelberger_map"),
    ("stickelberger.transpose_value", "stickelberger", "transpose_value"),
    ("stickelberger.image_selfdual_check", "stickelberger", "image_selfdual_check"),
    ("linalg.hnf", "linalg", "hnf"),
    ("linalg.hnf_with_transform", "linalg", "hnf_with_transform"),
    ("linalg.preimage_lattice", "linalg", "preimage_lattice"),
    ("linalg.det", "linalg", "det"),
    ("linalg.quadratic_solutions", "linalg", "quadratic_solutions"),
    ("number_fields.build_field", "number_fields", "build_field"),
    ("number_fields.different", "number_fields", "different"),
    ("number_fields.sqrt_inverse_different", "number_fields", "sqrt_inverse_different"),
    ("number_fields.prime_above", "number_fields", "prime_above"),
    ("number_fields.ideal_mul", "number_fields", "FractionalIdeal.__mul__"),
    ("number_fields.ideal_inverse", "number_fields", "FractionalIdeal.inverse"),
    ("number_fields.coordinates", "number_fields", "PeriodField.coordinates"),
    ("resolvends.resolvend", "resolvends", "resolvend"),
    ("resolvends.is_self_dual", "resolvends", "is_self_dual"),
    ("resolvends.inverse_resolvend", "resolvends", "inverse_resolvend"),
    ("resolvends.product_resolvend", "resolvends", "product_resolvend"),
    ("resolvends.stickelberger_factorization_check", "resolvends",
     "stickelberger_factorization_check"),
    ("gforms.gform_from_A", "gforms", "gform_from_A"),
    ("gforms.find_self_dual_generator", "gforms", "find_self_dual_generator"),
    ("gforms.is_self_dual_generator", "gforms", "is_self_dual_generator"),
)

COUNTS = (
    "cyclotomic.mul.coeff_ops",
    "group_ring.try_invert.invertible",
    "linalg.hnf.max_entry_bits",
    "gforms.witness.candidates_tried",
)


def _max_bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


# Hooks run after a traced call returns: (tracer, args, result) -> None.

def _after_cyclotomic_mul(tr, args, result):
    # Sum of phi(level)^2 over products of two cyclotomic numbers; products
    # with a rational scalar are not counted.
    if result is not NotImplemented and type(args[1]) is type(args[0]):
        tr.counts["cyclotomic.mul.coeff_ops"] += tr.phi(result.level) ** 2


def _after_try_invert(tr, args, result):
    tr.counts["group_ring.try_invert.invertible"] += 1


def _after_hnf(tr, args, result):
    bits = max(_max_bits(args[0]), _max_bits(result))
    key = "linalg.hnf.max_entry_bits"
    tr.counts[key] = max(tr.counts[key], bits)


def _after_hnf_with_transform(tr, args, result):
    h, u, _rank = result
    bits = max(_max_bits(args[0]), _max_bits(h), _max_bits(u))
    key = "linalg.hnf.max_entry_bits"
    tr.counts[key] = max(tr.counts[key], bits)


def _after_quadratic_solutions(tr, args, result):
    tr.last_solutions = result


def _after_find_self_dual_generator(tr, args, result):
    # The search walks the norm-one vectors in order and stops at the first
    # witness, so its position counts the candidates tried.
    sols = tr.last_solutions or []
    tried = len(sols) if result is None else sols.index(result.coords) + 1
    tr.counts["gforms.witness.candidates_tried"] += tried


HOOKS = {
    "cyclotomic.mul": _after_cyclotomic_mul,
    "group_ring.try_invert": _after_try_invert,
    "linalg.hnf": _after_hnf,
    "linalg.hnf_with_transform": _after_hnf_with_transform,
    "linalg.quadratic_solutions": _after_quadratic_solutions,
    "gforms.find_self_dual_generator": _after_find_self_dual_generator,
}


class Tracer:
    def __init__(self):
        names = [name for name, _, _ in TRACED]
        self.calls = dict.fromkeys(names, 0)
        self.busy = dict.fromkeys(names, 0.0)
        self.own = dict.fromkeys(names, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.last_solutions = None
        self.phi = None  # euler_phi, cached; bound by install
        self._depth = dict.fromkeys(names, 0)
        self._child_time = []  # one accumulator per open span
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        after = HOOKS.get(name)
        calls, busy, own, depth, child_time = (
            self.calls, self.busy, self.own, self._depth, self._child_time
        )

        @wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            depth[name] += 1
            child_time.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                own[name] += elapsed - child_time.pop()
                depth[name] -= 1
                if not depth[name]:
                    busy[name] += elapsed
                if child_time:
                    child_time[-1] += elapsed
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self):
        """Wrap every function in TRACED at every place gform_lab binds it."""
        from gform_lab.arith import euler_phi

        self.phi = lru_cache(maxsize=None)(euler_phi)
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "gform_lab" or n.startswith("gform_lab."))]
        owners = list(modules)
        for module in modules:
            owners += [v for v in vars(module).values()
                       if isinstance(v, type) and v.__module__ == module.__name__]
        for name, module_name, path in TRACED:
            *outer, attr = path.split(".")
            home = sys.modules[f"gform_lab.{module_name}"]
            for part in outer:
                home = getattr(home, part)
            original = vars(home)[attr]
            wrapper = self._wrap(name, original)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
                        self._patches.append((owner, key, original))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "busy_s": dict(self.busy),
                "self_s": dict(self.own), "counts": dict(self.counts)}
