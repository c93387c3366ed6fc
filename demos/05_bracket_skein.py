"""Skein-relation solutions and their place in the family classification.

For an invertible 2x2 seed N, the rank-one operator U = N (.) N^-1
satisfies U^2 = delta U with delta the loop value of N, so
R = alpha I + alpha^-1 U solves the braided equation whenever
delta = -(alpha^2 + alpha^-2).  Demanding unitarity pins delta to 2,
alpha to i, and N to a three-parameter family; each such solution is an
anti-diagonal (F3) family member, certified by a FamilySpec that rebuilds
it, and classify finds a diagonal-family (F1) certificate for the same
matrix: skein members lie where the families overlap.  For n x n
seeds the loop value obeys delta >= n, so nothing unitary exists beyond
the two-dimensional case.
"""

from __future__ import annotations

import numpy as np

from ybe4 import (
    BracketParams,
    bracket_to_family,
    braided_residual,
    classify,
    delta_lower_bound,
    inverse,
    is_unitary,
    loop_value,
    odot,
    skein_delta,
    unitary_bracket_family,
)


def main():
    params = BracketParams(r=0.5, g=0.3, p=1.1)
    N, R = unitary_bracket_family(params)
    U = odot(N, inverse(N))
    print(f"seed N(r={params.r}, g={params.g}, p={params.p}):")
    print(np.array2string(N, precision=4, suppress_small=True))
    print(f"loop value delta = {loop_value(N):.4f} (alpha = i demands {skein_delta(1j):.0f})")
    print(f"projector defect |U^2 - 2U| = {np.abs(U @ U - 2 * U).max():.2e}")
    _, defect = is_unitary(R)
    print(f"solution: unitarity defect {defect:.2e}, braided residual {braided_residual(R):.2e}")

    result = bracket_to_family(params)
    spec = result.spec
    print(f"\nF3 certificate (tag {result.family}), O the Takagi basis of N:")
    print(np.array2string(spec.Q.real, precision=4))
    print(f"k = {spec.k}, p = {spec.params['p']:.4f}, q = {spec.params['q']:.4f}, "
          f"rebuild residual {result.residual:.2e}")
    other = classify(R)
    print(f"classify tags the same R {other.family} "
          f"(certificate residual {other.residual:.2e})")

    # beyond 2x2 the loop value cannot reach 2: delta >= n for unitary-seed
    # candidates, measured here on random inverse-conjugate 3x3 matrices
    rng = np.random.default_rng(2)
    print("\nloop values of random 3x3 inverse-conjugate seeds (all >= 3):")
    for _ in range(4):
        B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        N3 = B @ inverse(np.conj(B))
        delta, residual = delta_lower_bound(N3)
        print(f"  delta = {delta.real:8.4f}  identity residual {residual:.2e}")


if __name__ == "__main__":
    main()
