"""Seeded item lists of the three workloads, as plain data.

Nothing here imports gform_lab. An item is a dict of ints, strings and lists
that the worker turns into concrete groups, elements, conductors and homs
before calling the library, so the parent process can rebuild the list of a
seed and compare its digest with the one each pass reports.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import gcd

COEFF_BOUND = 9  # group-ring and field coordinates are drawn from [-9, 9]
MAP_SPAN = 4  # equivariant-map value coordinates are drawn from [-4, 4]

INVERT_GROUPS = ((3,), (7,), (9,), (3, 3))
INVERT_PER_GROUP = 40
MAP_GROUPS = ((3,), (7,), (9,))
MAPS_PER_GROUP = 20

# Admissible conductors in bands of similar cost; a draw takes one field from
# each band. The strata follow the workload: four degree-3 fields with f < 90,
# three with 90 <= f <= 200, three of degree 5. The bands are narrow so that
# the work of a pass varies little between seeds, and a change in run time is
# the code's and not the draw's. Conductors whose cost falls between or far
# from the bands are not drawn: 157 and 163 at degree 3; 101, 181 and 191 at
# degree 5 (f = 191 alone costs more than the seven degree-3 fields together).
FIELD_BANDS = (
    (3, (7, 13, 19)),
    (3, (31, 37, 43)),
    (3, (61, 73)),
    (3, (67, 79)),
    (3, (91, 97, 103, 109)),
    (3, (127, 133, 139, 151)),
    (3, (181, 193, 199)),
    (5, (11, 31)),
    (5, (41, 61, 71)),
    (5, (131, 151)),
)

PAIRING_CONDUCTORS = (7, 13, 19, 31)
PAIRINGS_PER_CONDUCTOR = 10
INVERSE_LAW_CONDUCTORS = (7, 13, 19, 31, 91)
WEAK_MULT_PAIRS = ((7, 13), (7, 19))
FACTORIZATION_CONDUCTORS = (7, 13, 19, 31, 37)


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _nonzero_vector(rng: random.Random, length: int, bound: int) -> list[int]:
    while True:
        v = [rng.randint(-bound, bound) for _ in range(length)]
        if any(v):
            return v


def group_algebra(rng: random.Random) -> list[dict]:
    items = []
    for facs in INVERT_GROUPS:
        order = 1
        for d in facs:
            order *= d
        for _ in range(INVERT_PER_GROUP):
            coeffs = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(order)]
            items.append({"kind": "invert", "group": list(facs), "coeffs": coeffs})
    for (m,) in MAP_GROUPS:
        for _ in range(MAPS_PER_GROUP):
            # In a cyclic group the twist orbits are the sets of elements of
            # one order d, so one nonzero value in Q(zeta_d) per divisor d
            # fixes an equivariant map.
            values = [
                [d, _nonzero_vector(rng, _phi(d), MAP_SPAN)]
                for d in range(1, m + 1)
                if m % d == 0
            ]
            items.append({"kind": "selfdual", "group": [m], "values": values})
    return items


def period_fields(rng: random.Random) -> list[dict]:
    return [
        {"kind": "field", "degree": p, "conductor": rng.choice(band)}
        for p, band in FIELD_BANDS
    ]


def resolvend_laws(rng: random.Random) -> list[dict]:
    items = []
    for f in PAIRING_CONDUCTORS:
        for _ in range(PAIRINGS_PER_CONDUCTOR):
            items.append({
                "kind": "pairing",
                "conductor": f,
                "sigma": rng.choice((1, 2)),
                "a": [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(3)],
                "b": [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(3)],
            })
    items += [{"kind": "inverse_law", "conductor": f} for f in INVERSE_LAW_CONDUCTORS]
    items += [{"kind": "weak_mult", "conductors": list(fs)} for fs in WEAK_MULT_PAIRS]
    items += [{"kind": "factorization", "conductor": f} for f in FACTORIZATION_CONDUCTORS]
    return items


WORKLOADS = {
    "group-algebra": group_algebra,
    "period-fields": period_fields,
    "resolvend-laws": resolvend_laws,
}


def make_items(workload: str, seed: int) -> list[dict]:
    """The shuffled item list of a workload; equal seeds give equal lists."""
    rng = random.Random(f"{workload}/{seed}")
    items = WORKLOADS[workload](rng)
    rng.shuffle(items)
    return items


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
