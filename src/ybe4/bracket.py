"""Skein-relation solutions built from a 2x2 seed matrix.

For an invertible N the rank-one operator U = N (.) N^-1 (the odot product,
an outer product of the row-major flattenings) always satisfies

    U^2 = delta U,   delta = sum_ab N_ab (N^-1)_ab,

so R = alpha I + alpha^-1 U solves the braided equation whenever the loop
value delta matches -(alpha^2 + alpha^-2).  Demanding that R also be
unitary forces |alpha| = 1 and, in dimension two, pins the loop value to
delta = 2 and alpha to +-i; the compatible seeds form a three-parameter
family N(r, g, p) obeying conj(N) = N^-1.  For n x n seeds with
conj(N) = N^-1 the loop value obeys delta - n = sum_{i<j} |N_ij - N_ji|^2,
so delta >= n and no unitary skein solution exists beyond the flat
delta = 2 two-dimensional case.

The paper places these solutions in the anti-diagonal family with
Gram-diagonal Q (family F3) through a triangular congruence Q N Q^t = M
with M diagonal: conjugating R by Q (x) Q gives the anti-diagonal pattern
with corners p0 = -M00/M11 and q0 = -M11/M00, of moduli r and 1/r.
bracket_to_family certifies the same membership the way classify does,
with a FamilySpec that family_member rebuilds: an inverse-conjugate
symmetric N is unitary, so a real orthogonal Q (its Takagi basis)
diagonalizes it too and leaves both corners unimodular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import ClassificationResult
from .errors import (
    ConstraintViolation,
    DegenerateParameter,
    DimensionError,
    PreconditionFailed,
)
from .families import FamilySpec, family_member
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _numeric,
    as_square,
    check_instance,
    check_number,
    check_real,
    frobenius,
    inverse,
)

__all__ = [
    "BracketParams",
    "odot",
    "loop_value",
    "skein_delta",
    "bracket_R",
    "unitary_bracket_family",
    "delta_lower_bound",
    "bracket_to_family",
]


@dataclass(frozen=True)
class BracketParams:
    """Unitary seed parameters: radial weight r in [0,1] and phases g and p,
    each a finite real number.

    alpha is not a parameter: the unitary subfamily has alpha = i throughout
    (see unitary_bracket_family); bracket_R takes a general alpha.
    """

    r: float
    g: float = 0.0
    p: float = 0.0

    def __post_init__(self):
        for name in ("r", "g", "p"):
            check_real(name, getattr(self, name))
        if not 0.0 <= self.r <= 1.0:
            raise ConstraintViolation(f"r = {self.r} outside [0, 1]")


def odot(N: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Outer product of row-major flattenings: rows follow N entries, columns K's."""
    N = _numeric(N)
    K = _numeric(K)
    if N.shape != K.shape or N.ndim != 2 or N.shape[0] != N.shape[1]:
        raise DimensionError("odot needs two square matrices of the same size")
    return np.outer(N.reshape(-1), K.reshape(-1))


def loop_value(N: np.ndarray) -> complex:
    """delta = entrywise-product sum of N and N^-1 (no transpose, no conjugate)."""
    N = _numeric(N)
    return complex(np.sum(N * inverse(N)))


def _check_alpha(alpha: complex) -> None:
    check_number("alpha", alpha)
    if alpha == 0:
        raise DegenerateParameter("alpha = 0: the skein relation needs alpha^-1")


def skein_delta(alpha: complex) -> complex:
    """The loop value -(alpha^2 + alpha^-2) the skein relation demands."""
    _check_alpha(alpha)
    return -(alpha**2 + alpha**-2)


def bracket_R(alpha: complex, N: np.ndarray) -> np.ndarray:
    """R = alpha I + alpha^-1 U with U = N (.) N^-1.

    Solves the braided equation exactly when loop_value(N) = tr U equals
    skein_delta(alpha); that consistency is the caller's to check, not
    enforced here.  alpha = 0 raises DegenerateParameter.
    """
    _check_alpha(alpha)
    U = odot(N, inverse(N))
    return alpha * np.eye(U.shape[0], dtype=complex) + U / alpha


def unitary_bracket_family(params: BracketParams) -> tuple[np.ndarray, np.ndarray]:
    """The seed N(r, g, p) with conj(N) = N^-1 and its unitary braided R.

    The off-diagonal carries an explicit factor i: for 0 < r < 1 the
    inverse-conjugate condition forces the shared off-diagonal entry to be
    purely imaginary times e^{ip/2}, and with it det N = e^{ip} on the whole
    range of r.  R is built with alpha = i, the only (up to sign) unit alpha
    whose demanded loop value matches the delta = 2 these seeds produce.
    """
    check_instance("params", params, BracketParams)
    r, g, p = params.r, params.g, params.p
    off = 1j * np.sqrt(1.0 - r * r) * np.exp(0.5j * p)
    N = np.array(
        [
            [r * np.exp(1j * g), off],
            [off, r * np.exp(1j * (p - g))],
        ]
    )
    return N, bracket_R(1j, N)


def delta_lower_bound(N: np.ndarray) -> tuple[complex, float]:
    """Loop value of an inverse-conjugate seed and its identity residual.

    For conj(N) = N^-1 the loop value satisfies
    delta - n = sum over pairs |N_ij - N_ji|^2, hence Re(delta) >= n.
    Returns (delta, residual of that identity).  N goes through as_square;
    PreconditionFailed unless ||conj(N) N - I||_F <= 1e-8, so a defect that
    overflows to inf or NaN fails too.
    """
    N = as_square(N)
    n = N.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        defect = frobenius(np.conj(N) @ N - np.eye(n))
    if not defect <= 1e-8:
        raise PreconditionFailed("conj(N) is not the inverse of N")
    delta = loop_value(N)
    asym = sum(
        abs(N[i, j] - N[j, i]) ** 2 for i in range(n) for j in range(i + 1, n)
    )
    return delta, float(abs(delta - n - asym))


def _takagi_basis(N: np.ndarray) -> np.ndarray:
    """Real orthogonal O with O^T N O diagonal, for a symmetric unitary 2x2 N.

    Re N and Im N commute, so their traceless parts A and B are
    proportional: with s the sign of <A, B>, A + s B = [[a, b], [b, -a]]
    has their common eigenbasis at every gap, and the two never cancel.
    That basis is the rotation by half of arctan(b / a) (a Jacobi
    rotation), whose angle lies within pi/4, so |O_00|^2 >= 1/2 keeps the
    corners of the F3 certificate away from zero.
    """
    x, y = (N[0, 0] - N[1, 1]) / 2, N[0, 1]
    s = math.copysign(1.0, x.real * x.imag + y.real * y.imag)
    a, b = x.real + s * x.imag, y.real + s * y.imag
    half = 0.5 * math.atan2(b if a >= 0 else -b, abs(a))
    c, t = math.cos(half), math.sin(half)
    return np.array([[c, -t], [t, c]])


def bracket_to_family(
    params: BracketParams, tol: Tolerance = DEFAULT_TOL
) -> ClassificationResult:
    """The skein member as a certified member of the anti-diagonal family F3.

    With O the real orthogonal Takagi basis of the seed and D = O^T N O
    diagonal, N (.) N^-1 = (O (x) O)(D (.) D^-1)(O (x) O)^T, so the member
    is FamilySpec("F3", O, i, {p: -D00 conj(D11), q: -D11 conj(D00)}), and
    q = conj(p); O has Gram matrix I, so |p| = |q| = 1 are the moduli F3
    forces.  The result is classify's: the family is "F3" exactly when
    family_member rebuilds the member within tol.residual_tol, and None
    otherwise, with the spec and its rebuild residual kept either way.
    Raises ConstraintViolation unless params is a BracketParams and tol a
    Tolerance, and when the spec misses F3's constraints under tol.
    """
    N, R = unitary_bracket_family(params)
    O = _takagi_basis(N)
    d00, d11 = np.diag(O.T @ N @ O)
    p = -d00 * np.conj(d11)
    spec = FamilySpec("F3", O, 1j, {"p": p, "q": np.conj(p)})
    residual = frobenius(family_member(spec, tol=tol) - R)
    family = "F3" if residual <= tol.residual_tol else None
    return ClassificationResult(family, spec, residual, "Takagi basis of the seed")
