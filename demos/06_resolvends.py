"""Resolvends: the group-ring shadow of a Galois-algebra element, the pairing
identity tying products of resolvends to trace Grams, and reduction modulo
the group."""

from gform_lab import (
    AlgebraElement,
    GroupRingElement,
    HomToG,
    build_field,
    is_normal_basis_generator,
    is_self_dual,
    reduced_resolvend,
    resolvend,
    resolvend_pairing_identity,
)

K = build_field(3, 7)
h = HomToG.standard(K)
G = h.group

a = AlgebraElement(h, K.periods[0])
r = resolvend(a)
print("resolvend of eta_0:", r)
print("coefficients read off the Galois conjugates:",
      all(r.coefficient(G.element((j,)).inverse()) == K.periods[j] for j in range(3)))

# generators of the algebra over QG are exactly the invertible resolvends
print("\neta_0 generates over QG:", is_normal_basis_generator(a))
one = AlgebraElement(h, 1)
print("the constant 1 does not:", is_normal_basis_generator(one))

# r(a) r(a)^[-1] has the trace Gram row of a as coefficients
lhs = (r * r.involute()).demoted()
print("\nr(a) r(a)^[-1] =", lhs, " (the Gram row 5, -2, -2)")
print("pairing identity holds:", resolvend_pairing_identity(a, a))

# eta_0 is not self-dual (Tr eta_0^2 = 5), and both routes agree on that
print("eta_0 self-dual:", is_self_dual(a))

# reduction forgets right multiplication by group elements
shifted = AlgebraElement(h, a.value_at(G.element((1,))))
print("\nreduced resolvends of a and its translate agree:",
      reduced_resolvend(a) == reduced_resolvend(shifted))

# the split algebra contributes the identity resolvend
e = AlgebraElement.split_identity(G)
print("split identity resolvend:", resolvend(e) == GroupRingElement.one(G),
      "and it is self-dual:", is_self_dual(e))
