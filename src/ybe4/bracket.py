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

from .errors import (
    ConstraintViolation,
    DegenerateParameter,
    DimensionError,
    PreconditionFailed,
)
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
    kron,
)

__all__ = [
    "BracketParams",
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


@dataclass(frozen=True, eq=False)
class BracketReduction:
    """Congruence data taking a unitary seed to the anti-diagonal family.

    ``family`` is "F3" exactly when every (name, residual, bound) triple in
    ``checks`` has residual <= bound, and "" otherwise.
    """

    N: np.ndarray
    Q: np.ndarray
    M: np.ndarray
    p0: complex
    q0: complex
    R_hat: np.ndarray
    R_conjugated: np.ndarray
    family: str
    constraint_defects: tuple[float, float, float]
    checks: tuple[tuple[str, float, float], ...]


def bracket_to_family(
    params: BracketParams, tol: Tolerance = DEFAULT_TOL
) -> BracketReduction:
    """Diagonalize the seed by congruence and read off the family data.

    Q = [[1, 0], [z, sqrt(r)]] with z = -i sqrt(1-r^2) e^{i(p/2-g)} / sqrt(r)
    makes M = Q N Q^t exactly diagonal; conjugating the braided solution by
    Q (x) Q yields the anti-diagonal pattern bracket_R(i, M) whose
    parameters have moduli r and 1/r, the constraints of the Gram-diagonal
    anti-diagonal family.  That pattern solves the braided equation for any
    parameters, so the F3 tag needs only the three ``checks``: M is
    diagonal, R_conj is the pattern, and the moduli meet the constraints.
    Each bound is a ``tol`` field times the closed-form size of the
    entries compared, taken from r rather than from the computed matrices
    so a wrong R_conj cannot widen its own bound: eq_tol for M (moduli r
    and 1), residual_tol and eq_tol times max(1, 1/r) for R_conj (|q0| = 1/r).
    The scale of Q is a free choice, fixed to 1 here; Q^-1 is taken in
    closed form.  |M00| = r |M11|, so M is singular for r <= singular_tol.
    """
    check_instance("params", params, BracketParams)
    check_instance("tol", tol, Tolerance)
    if params.r <= tol.singular_tol:
        raise DegenerateParameter(f"r = {params.r} makes the diagonal seed M singular")
    N, R_hat = unitary_bracket_family(params)
    r, g, p = params.r, params.g, params.p
    z = -1j * np.sqrt(1.0 - r * r) * np.exp(1j * (p / 2.0 - g)) / np.sqrt(r)
    Q = np.array([[1.0, 0.0], [z, np.sqrt(r)]], dtype=complex)
    Qinv = np.array([[1.0, 0.0], [-z / np.sqrt(r), 1.0 / np.sqrt(r)]], dtype=complex)
    M = Q @ N @ Q.T
    p0 = -M[0, 0] / M[1, 1]
    q0 = -M[1, 1] / M[0, 0]
    R_conj = kron(Q, Q) @ R_hat @ kron(Qinv, Qinv)
    ratio = abs(Q[1, 1]) ** 2 / abs(Q[0, 0]) ** 2
    defects = (
        float(abs(abs(p0) - ratio)),
        float(abs(abs(q0) - 1.0 / ratio)),
        float(abs(abs(p0 * q0) - 1.0)),
    )
    size = max(1.0, 1.0 / r)
    pattern = frobenius(R_conj - bracket_R(1j, M))
    checks = (
        ("congruence diagonalizes", float(abs(M[0, 1]) + abs(M[1, 0])), tol.eq_tol),
        ("anti-diagonal pattern", pattern, tol.residual_tol * size),
        ("family constraint defect", max(defects), tol.eq_tol * size),
    )
    family = "F3" if all(residual <= bound for _, residual, bound in checks) else ""
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
        checks=checks,
    )
