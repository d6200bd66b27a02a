"""G-forms over Z, self-dual generator searches, and the instance checks of
the inverse and product laws for trace forms on square roots of inverse
differents.

A form is a lattice in coordinates (rows), an exact Gram matrix, and the
right-action matrices of the group on coordinates. One test decides whether
coordinates v give a self-dual generator: `IsometryWitness.verify` re-derives
the orbit v.s from v alone, checks the |G| pairings <v.s, v> = delta(s) and
requires a unit orbit determinant. `GForm` proves on construction that the
form is invariant and that the action matrices compose, and a unit orbit
determinant makes the orbit a basis, so the action of the identity is the
identity and <v.s, v.t> = <v.(s t^-1), v>: the |G| pairings give
delta-orthonormality of the whole orbit, and the orbit spans the lattice.
Every witness element is re-verified on the field side, independently of
the form: `resolvends.is_self_dual` compares the trace table from the
field's integer Gram with 1 and decides r(a) r(a)^[-1] = 1 on the field's
certified multiplication table, and the HNF span test of
`is_self_dual_generator` checks that the orbit spans A. The inverse and
product laws build their elements on period coordinates and certify their
resolvends exactly, so no step builds a value in Q(zeta_f).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from operator import mul

from . import linalg
from .arith import as_int, over_common_denominator
from .groups import FiniteAbelianGroup, GroupElement
from .number_fields import (
    FractionalIdeal,
    HomToG,
    PeriodField,
    compose_fields,
    sqrt_inverse_different,
)
from .resolvends import (
    AlgebraElement,
    inverse_resolvend,
    is_self_dual,
    product_resolvend,
)
from .record import Record


class WitnessNotFound(RuntimeError):
    """The exhaustive candidate set contained no self-dual generator."""


class GForm:
    """Unimodular positive-definite G-form in explicit coordinates: row
    vectors, v . gram . w^T pairing, right action v -> v @ M_s."""

    def __init__(self, group: FiniteAbelianGroup, gram, actions, label: str = "",
                 field: PeriodField | None = None, hom: HomToG | None = None,
                 basis_num=None, basis_den: int = 1):
        self.group = group
        self.gram = tuple(tuple(Fraction(x) for x in row) for row in gram)
        self.rank = len(self.gram)
        # the Gram as integer numerators over their lcm, for all exact work
        flat, self._gram_den = over_common_denominator([x for row in self.gram for x in row])
        nums = iter(flat)
        self._gram_num = tuple(tuple(next(nums) for _ in row) for row in self.gram)
        self.actions = {s: tuple(tuple(as_int(x) for x in row) for row in m)
                        for s, m in actions.items()}
        self.label = label or f"form of rank {self.rank} over {group}"
        self.field = field
        self.hom = hom
        self.basis_num = basis_num
        self.basis_den = basis_den
        self._validate()
        # one elimination of the Gram per form, read by every determinant test
        self._determinant = linalg.det(self._gram_num) / self._gram_den ** self.rank

    def _validate(self):
        """Check that the Gram is square and symmetric and that the actions
        represent G on the form, on the generators g only: M_e = I,
        M_g gram M_g^T = gram, and M_g M_t = M_{gt} for every t. Every s is a
        word in the generators, so by induction on its length M_{gs} M_t =
        M_g M_{st} = M_{gst} for all s, t, and each M_s is a product of
        invariant matrices: |G| + 2 products per generator imply all |G|^2."""
        if self.group.order % 2 == 0:
            raise ValueError("G-forms are only handled for groups of odd order")
        gram = self._gram_num
        for row in gram:
            if len(row) != self.rank:
                raise ValueError("Gram matrix is not square")
        if any(gram[i][j] != gram[j][i] for i in range(self.rank) for j in range(i)):
            raise ValueError("Gram matrix is not symmetric")
        elems = self.group.elements()
        if set(self.actions) != set(elems):
            raise ValueError("need one action matrix per group element")
        if not linalg.mat_eq(self.actions[self.group.identity()], linalg.identity_matrix(self.rank)):
            raise ValueError("the identity does not act as the identity matrix")
        rank = self.group.rank
        for k in range(rank):
            g = self.group.element(tuple(int(j == k) for j in range(rank)))
            m = self.actions[g]
            if not linalg.mat_eq(linalg.mat_mul(linalg.mat_mul(m, gram), linalg.transpose(m)), gram):
                raise ValueError(f"form is not invariant under {g}")
            for t in elems:
                if not linalg.mat_eq(linalg.mat_mul(m, self.actions[t]), self.actions[g * t]):
                    raise ValueError("action matrices do not compose")

    def pair(self, v, w) -> Fraction:
        """v . gram . w^T, on the integer Gram over its denominator."""
        gw = [sum(map(mul, row, w)) for row in self._gram_num]
        return Fraction(sum(map(mul, v, gw)), self._gram_den)

    def act(self, v, s: GroupElement):
        return tuple(sum(map(mul, v, col)) for col in zip(*self.actions[s]))

    def determinant(self) -> Fraction:
        return self._determinant

    def __repr__(self):
        return f"GForm({self.label})"


def standard_form(group: FiniteAbelianGroup) -> GForm:
    """The group ring with the delta pairing on group elements."""
    elems = group.elements()
    n = len(elems)
    index = {s: i for i, s in enumerate(elems)}
    actions = {}
    for s in elems:
        m = [[0] * n for _ in range(n)]
        for i, h in enumerate(elems):
            m[i][index[h * s]] = 1
        actions[s] = m
    return GForm(group, linalg.identity_matrix(n), actions, label=f"(Z{group}, delta)")


def gform_from_A(field: PeriodField, hom: HomToG | None = None) -> GForm:
    """The trace form on the square root of the inverse different, in the
    coordinates of its HNF basis; unimodularity is asserted. Built and
    verified once per field and identification, in the field's ideal memo;
    a failed check raises and stores nothing."""
    if hom is None:
        hom = HomToG.standard(field)
    memo = field._ideal_memo
    if hom not in memo:
        memo[hom] = _build_gform_from_A(field, hom)
    return memo[hom]


def _build_gform_from_A(field: PeriodField, hom: HomToG) -> GForm:
    A = sqrt_inverse_different(field)
    p = field.degree
    B = [list(r) for r in A.num]
    den2 = A.den * A.den
    # the Gram of the basis B/den is B G B^T / den^2
    num = linalg.mat_mul(linalg.mat_mul(B, field.gram), linalg.transpose(B))
    if any(x % den2 for row in num for x in row):
        raise ArithmeticError("trace Gram of the A-basis is not integral")
    gram = [[x // den2 for x in row] for row in num]
    # generator acts through the Galois power t pinned by the identification:
    # B S^t B^-1, where row . S^t is sigma_coords(row, t)
    t = hom.galois_power(hom.group.element((1,)))
    binv, bden = linalg.inverse(B)
    moved = linalg.mat_mul([field.sigma_coords(row, t) for row in B], binv)
    if any(x % bden for row in moved for x in row):
        raise ArithmeticError("Galois action does not stabilize the A-lattice")
    m_gen = [[x // bden for x in row] for row in moved]
    actions = {}
    acc = linalg.identity_matrix(p)
    for j in range(p):
        actions[hom.group.element((j,))] = [row[:] for row in acc]
        acc = linalg.mat_mul(acc, m_gen)
    form = GForm(
        hom.group,
        gram,
        actions,
        label=f"(A, trace) for conductor {field.conductor}",
        field=field,
        hom=hom,
        basis_num=tuple(tuple(r) for r in A.num),
        basis_den=A.den,
    )
    if abs(d := form.determinant()) != 1:
        raise ArithmeticError(f"A-form has determinant {d}, expected a unit")
    return form


class IsometryWitness(Record):
    """A self-dual generator: coordinates of x and the change-of-basis matrix
    whose rows are the orbit coordinates of s . x in enumeration order."""

    __slots__ = ("form", "coords", "orbit_matrix")

    def __init__(self, form: GForm, coords: tuple[int, ...],
                 orbit_matrix: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "orbit_matrix", orbit_matrix)

    @classmethod
    def of(cls, form: GForm, coords) -> "IsometryWitness":
        """The candidate at coords, with its orbit taken from the form."""
        coords = tuple(as_int(x) for x in coords)
        return cls(form, coords, tuple(form.act(coords, s) for s in form.group.elements()))

    def verify(self) -> bool:
        """Re-derive the orbit from the coordinates, compare it with
        orbit_matrix, check <v.s, v> = delta(s) for each s in G and require a
        unit orbit determinant; the module docstring says why these |G|
        pairings give the delta-orthonormality of the whole orbit."""
        if IsometryWitness.of(self.form, self.coords).orbit_matrix != self.orbit_matrix:
            return False
        for s, row in zip(self.form.group.elements(), self.orbit_matrix):
            if self.form.pair(row, self.coords) != (1 if s.is_identity else 0):
                return False
        return abs(linalg.det([list(r) for r in self.orbit_matrix])) == 1

    def to_json(self) -> dict:
        return {
            "coords": list(self.coords),
            "orbit_matrix": [list(r) for r in self.orbit_matrix],
        }


def find_self_dual_generator(form: GForm) -> IsometryWitness | None:
    """Enumerate the finitely many lattice vectors of norm 1 (exact
    enumeration over the Gram matrix, canonical descending order, one vector
    per +/- pair since both signs behave identically) and return the first
    whose witness verifies; None when the candidate set is exhausted."""
    if form.rank != form.group.order:
        raise ValueError("form rank differs from the group order")
    if abs(form.determinant()) != 1:
        raise ValueError("form is not unimodular")
    # raises ValueError when the form is not positive definite
    for v in linalg.quadratic_solutions(form._gram_num, form._gram_den):
        witness = IsometryWitness.of(form, v)
        if witness.verify():
            return witness
    return None


def witness_element(form: GForm, witness: IsometryWitness) -> AlgebraElement:
    """Present a witness on an A-form as an element of the Galois algebra."""
    if form.field is None or form.hom is None:
        raise ValueError("form does not carry number-field provenance")
    # coords . basis_num are the period coordinates over basis_den
    num = linalg.mat_vec(linalg.transpose(form.basis_num), witness.coords)
    return AlgebraElement._from_coordinates(form.hom, num, form.basis_den)


def self_dual_generator(
    field: PeriodField, hom: HomToG | None = None
) -> tuple[IsometryWitness, AlgebraElement]:
    """The first self-dual generator of (A, trace) for the identification hom
    (the standard one by default): its witness on the A-form and its element
    of the Galois algebra. Raises WitnessNotFound when the search is
    exhausted."""
    form = gform_from_A(field, hom)
    witness = find_self_dual_generator(form)
    if witness is None:
        raise WitnessNotFound(f"no self-dual generator for conductor {field.conductor}")
    return witness, witness_element(form, witness)


def _orbit_spans(a: AlgebraElement, lattice: FractionalIdeal) -> bool:
    """Whether the group orbit of a spans the fractional ideal (two-sided HNF
    equality)."""
    rows = [a._moved(s) for s in a.group.elements()]
    try:
        span = FractionalIdeal(a.hom.field, rows, a.den)
    except ValueError:
        return False  # orbit does not have full rank
    return span == lattice


def is_self_dual_generator(a: AlgebraElement, lattice: FractionalIdeal) -> bool:
    """Whether a is self-dual for the trace form and its group orbit spans the
    given fractional ideal (two-sided HNF equality)."""
    return is_self_dual(a) and _orbit_spans(a, lattice)


def verify_inverse_law(field: PeriodField, hom: HomToG | None = None) -> bool:
    """Instance check that inverting the resolvend of a self-dual generator
    of A yields a self-dual generator of A for the inverse identification."""
    _, a = self_dual_generator(field, hom)
    A = sqrt_inverse_different(field)
    if not is_self_dual_generator(a, A):
        raise AssertionError("witness element failed independent re-verification")
    return is_self_dual_generator(inverse_resolvend(a), A)


class ProductLaw(Record):
    """One product-law instance: the factor witnesses, the composite-cut
    field, the element whose resolvend is the product of the factors', and
    the verdict `holds` (it is a self-dual generator of A for the composite)."""

    __slots__ = ("witnesses", "composite", "element", "self_dual", "holds")

    def __init__(self, witnesses: tuple[IsometryWitness, IsometryWitness],
                 composite: PeriodField, element: AlgebraElement, self_dual: bool, holds: bool):
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "composite", composite)
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "self_dual", self_dual)
        object.__setattr__(self, "holds", holds)


def product_law(
    field1: PeriodField,
    field2: PeriodField,
    hom1: HomToG | None = None,
    hom2: HomToG | None = None,
) -> ProductLaw:
    """Multiply the resolvends of self-dual generators of A for two fields
    with disjoint ramification and test the product on A of the
    composite-cut field."""
    if hom1 is None:
        hom1 = HomToG.standard(field1)
    if hom2 is None:
        hom2 = HomToG.standard(field2, hom1.group)
    # a bad pair fails here, before the two witness searches
    compose_fields(field1, field2, weights=hom1.product_weights(hom2))
    w1, a1 = self_dual_generator(field1, hom1)
    w2, a2 = self_dual_generator(field2, hom2)
    a = product_resolvend(a1, a2)
    composite = a.hom.field
    self_dual = is_self_dual(a)
    holds = self_dual and _orbit_spans(a, sqrt_inverse_different(composite))
    return ProductLaw((w1, w2), composite, a, self_dual, holds)


def verify_weak_multiplicativity(
    field1: PeriodField,
    field2: PeriodField,
    hom1: HomToG | None = None,
    hom2: HomToG | None = None,
) -> bool:
    """Instance check that the product of resolvends of self-dual generators
    of A for two fields with disjoint ramification is a self-dual generator
    of A for the composite-cut field."""
    return product_law(field1, field2, hom1, hom2).holds


class IsometryResult(enum.Enum):
    ISOMETRIC = "isometric"
    NOT_ISOMETRIC = "not_isometric"
    INCONCLUSIVE = "inconclusive"

    def __bool__(self):
        return self is IsometryResult.ISOMETRIC


def isometry_equivalence(form1: GForm, form2: GForm) -> IsometryResult:
    """Decide G-isometry by matching self-dual generator witnesses. Sound
    always; complete for unimodular positive-definite forms of rank |G|,
    where an exhausted search certifies no isometry with the standard form.
    Inconclusive cases are reported as such, never as false."""
    if form1.group != form2.group:
        raise ValueError("forms carry different groups")
    if form1.rank != form2.rank:
        return IsometryResult.NOT_ISOMETRIC
    if form1.determinant() != form2.determinant():
        return IsometryResult.NOT_ISOMETRIC
    if form1.gram == form2.gram and form1.actions == form2.actions:
        return IsometryResult.ISOMETRIC
    try:
        w1 = find_self_dual_generator(form1)
        w2 = find_self_dual_generator(form2)
    except ValueError:
        return IsometryResult.INCONCLUSIVE
    if w1 is not None and w2 is not None:
        return IsometryResult.ISOMETRIC
    if (w1 is None) != (w2 is None):
        return IsometryResult.NOT_ISOMETRIC
    return IsometryResult.INCONCLUSIVE
