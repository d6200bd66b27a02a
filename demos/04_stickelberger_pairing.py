"""The centered pairing on characters x elements, the kernel lattice where
its linearization is integral, and the transpose action on equivariant maps."""

import random
from fractions import Fraction

from gform_lab import (
    DualLatticeElement,
    EquivariantMap,
    FiniteAbelianGroup,
    det_kernel_basis,
    equivariance_check,
    image_selfdual_check,
    integrality_check,
    pairing_char,
    stickelberger_map,
    transpose_value,
    upsilon,
)
from gform_lab.arith import unit_group_generators

G = FiniteAbelianGroup((3,))
chi = G.character((1,))
sigma = G.element((1,))

# chi(sigma) = zeta_3, so the centered exponent is 1 and the pairing is 1/3
print("upsilon(chi, sigma) =", upsilon(chi, sigma))
print("upsilon(chi^2, sigma) =", upsilon(chi**2, sigma), " (centered into [-1, 1])")
print("<chi, sigma> =", pairing_char(chi, sigma))

psi = DualLatticeElement(G, (0, 3, 0))  # 3*chi
print("\nimage of 3*chi:", stickelberger_map(psi).coeffs, " (sigma - sigma^2)")
print("integral?", integrality_check(psi))
psi_bad = DualLatticeElement(G, (0, 1, 0))
print("image of chi alone:", stickelberger_map(psi_bad).coeffs)
print("integral?", integrality_check(psi_bad))

print("\nkernel basis (canonical HNF rows):")
for b in det_kernel_basis(G):
    print(" ", b.coeffs)

# the map intertwines the dual action with the inverse twist on the group
C9 = FiniteAbelianGroup((9,))
gens = unit_group_generators(9)
print(f"\nequivariance over C9 for generators {gens}:", equivariance_check(C9, gens))

# transpose values of the single-prime branch map: exponents read off the image
f = EquivariantMap.prime_map(G, 7, sigma)
print("\ntranspose value of f_(7,sigma) at 3*chi:", transpose_value(f, psi))
print("at the trivial character:", transpose_value(f, DualLatticeElement(G, (1, 0, 0))))

# every unit-valued map lands in the strict self-dual class
rng = random.Random(0)
print("\nrandom equivariant maps land self-dually:",
      all(image_selfdual_check(EquivariantMap.random_map(G, rng)) for _ in range(20)))
