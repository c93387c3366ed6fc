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

Each unitary seed reduces, through a triangular congruence Q N Q^t = M
with M diagonal, to a member of the anti-diagonal family with Gram-diagonal
Q (family F3): conjugating R by Q (x) Q produces the anti-diagonal pattern
with parameters p0 = -M00/M11 and q0 = -M11/M00 whose moduli are r and 1/r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import braided_residual
from .errors import ConstraintViolation, DegenerateParameter, PreconditionFailed
from .linalg import frobenius, inverse, kron

__all__ = [
    "BracketParams",
    "SkeinTriple",
    "BracketReduction",
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
    """Seed parameters: radial weight r in [0,1], phases g and p, unit alpha."""

    r: float
    g: float = 0.0
    p: float = 0.0
    alpha: complex = 1j

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise ConstraintViolation(f"r = {self.r} outside [0, 1]")
        if abs(abs(self.alpha) - 1.0) > 1e-9:
            raise ConstraintViolation(f"|alpha| = {abs(self.alpha)} is not 1")


def odot(N: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Outer product of row-major flattenings: rows follow N entries, columns K's."""
    N = np.asarray(N, dtype=complex)
    K = np.asarray(K, dtype=complex)
    if N.shape != K.shape or N.ndim != 2 or N.shape[0] != N.shape[1]:
        raise ValueError("odot needs two square matrices of the same size")
    return np.outer(N.reshape(-1), K.reshape(-1))


def loop_value(N: np.ndarray) -> complex:
    """delta = entrywise-product sum of N and N^-1 (no transpose, no conjugate)."""
    return SkeinTriple.from_seed(N).delta


def skein_delta(alpha: complex) -> complex:
    """The loop value -(alpha^2 + alpha^-2) the skein relation demands."""
    return -(alpha**2 + alpha**-2)


@dataclass(frozen=True, eq=False)
class SkeinTriple:
    """A seed N together with U = N (.) N^-1 and its loop value."""

    N: np.ndarray
    U: np.ndarray
    delta: complex

    @classmethod
    def from_seed(cls, N: np.ndarray) -> "SkeinTriple":
        N = np.asarray(N, dtype=complex)
        Ninv = inverse(N)
        return cls(N=N, U=odot(N, Ninv), delta=complex(np.sum(N * Ninv)))

    def idempotency_defect(self) -> float:
        """Frobenius norm of U^2 - delta U; zero up to rounding, always."""
        return frobenius(self.U @ self.U - self.delta * self.U)


def bracket_R(alpha: complex, N: np.ndarray) -> np.ndarray:
    """R = alpha I + alpha^-1 (N (.) N^-1).

    Solves the braided equation exactly when loop_value(N) equals
    skein_delta(alpha); that consistency is the caller's to check (see
    SkeinTriple), not enforced here.
    """
    U = SkeinTriple.from_seed(N).U
    dim = U.shape[0]
    return alpha * np.eye(dim, dtype=complex) + U / alpha


def unitary_bracket_family(params: BracketParams) -> tuple[np.ndarray, np.ndarray]:
    """The seed N(r, g, p) with conj(N) = N^-1 and its unitary braided R.

    The off-diagonal carries an explicit factor i: for 0 < r < 1 the
    inverse-conjugate condition forces the shared off-diagonal entry to be
    purely imaginary times e^{ip/2}, and with it det N = e^{ip} on the whole
    range of r.  Requires alpha = i, the only (up to sign) unit alpha whose
    demanded loop value matches the delta = 2 these seeds produce.
    """
    if params.alpha != 1j:
        raise ConstraintViolation(
            "the unitary subfamily needs alpha = i; use bracket_R for general alpha"
        )
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
    Returns (delta, residual of that identity).
    """
    N = np.asarray(N, dtype=complex)
    n = N.shape[0]
    if frobenius(np.conj(N) @ N - np.eye(n)) > 1e-8:
        raise PreconditionFailed("conj(N) is not the inverse of N")
    delta = loop_value(N)
    asym = sum(
        abs(N[i, j] - N[j, i]) ** 2 for i in range(n) for j in range(i + 1, n)
    )
    residual = abs(delta - n - asym)
    if delta.real < n - 1e-8:
        raise PreconditionFailed(
            f"loop value {delta.real:.12g} fell below the dimension bound {n}"
        )
    return delta, float(residual)


@dataclass(frozen=True, eq=False)
class BracketReduction:
    """Congruence data taking a unitary seed to the anti-diagonal family."""

    N: np.ndarray
    Q: np.ndarray
    M: np.ndarray
    p0: complex
    q0: complex
    R_hat: np.ndarray
    R_conjugated: np.ndarray
    family: str
    constraint_defects: tuple[float, float, float]


def bracket_to_family(params: BracketParams) -> BracketReduction:
    """Diagonalize the seed by congruence and read off the family data.

    Q = [[1, 0], [z, sqrt(r)]] with z = -i sqrt(1-r^2) e^{i(p/2-g)} / sqrt(r)
    makes M = Q N Q^t exactly diagonal; conjugating the braided solution by
    Q (x) Q yields the anti-diagonal pattern whose parameters have moduli
    r and 1/r, the constraints of the Gram-diagonal anti-diagonal family.
    The scale of Q is a free choice, fixed to 1 here.
    """
    if params.r <= 1e-9:
        raise DegenerateParameter("r = 0 makes the congruence factor z blow up")
    N, R_hat = unitary_bracket_family(params)
    r, g, p = params.r, params.g, params.p
    z = -1j * np.sqrt(1.0 - r * r) * np.exp(1j * (p / 2.0 - g)) / np.sqrt(r)
    Q = np.array([[1.0, 0.0], [z, np.sqrt(r)]], dtype=complex)
    M = Q @ N @ Q.T
    p0 = -M[0, 0] / M[1, 1]
    q0 = -M[1, 1] / M[0, 0]
    A = kron(Q, Q)
    R_conj = A @ R_hat @ inverse(A)
    ratio = abs(Q[1, 1]) ** 2 / abs(Q[0, 0]) ** 2
    defects = (
        float(abs(abs(p0) - ratio)),
        float(abs(abs(q0) - 1.0 / ratio)),
        float(abs(abs(p0 * q0) - 1.0)),
    )
    family = "F3" if max(defects) <= 1e-9 and braided_residual(R_conj) <= 1e-8 else ""
    return BracketReduction(
        N=N,
        Q=Q,
        M=M,
        p0=p0,
        q0=q0,
        R_hat=R_hat,
        R_conjugated=R_conj,
        family=family,
        constraint_defects=defects,
    )
