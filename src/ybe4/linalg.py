"""Dense complex matrix kernel used throughout the package.

Everything here operates on small (dim <= 8) complex matrices stored as
``numpy.ndarray`` with dtype complex128.  Matrix products, Kronecker
products and norms defer to numpy.  Inversion is explicit Gauss-Jordan, so
a singular pivot surfaces as SingularMatrix.  Eigenvalue roots come from
LAPACK; where they cluster (relative to the matrix scale) each cluster is
replaced by its mean, an exact multiple root, and every root is checked
against the independently computed Faddeev-LeVerrier characteristic
polynomial, so a root that does not solve it surfaces as NonConvergence
instead of silent garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations

import numpy as np

from .errors import (
    ConstraintViolation,
    DimensionError,
    NonConvergence,
    NonFiniteValue,
    SingularMatrix,
)

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_square",
    "kron",
    "dagger",
    "frobenius",
    "inverse",
    "char_poly",
    "eigenvalues",
    "is_unitary",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used by checks in this package.

    eq_tol        entrywise equality comparisons
    residual_tol  Frobenius-norm residual checks (unitarity, YBE)
    singular_tol  relative pivot threshold for declaring a matrix singular
    """

    eq_tol: float = 1e-9
    residual_tol: float = 1e-9
    singular_tol: float = 1e-6

    def __post_init__(self):
        for field in fields(self):
            check_tolerance(field.name, getattr(self, field.name))


def check_tolerance(name: str, value: float) -> None:
    """Raise ConstraintViolation unless value is finite and positive.

    A NaN bound fails every comparison and a negative one passes none, so
    either would turn each check into a silent wrong verdict.
    """
    if not (np.isfinite(value) and value > 0):
        raise ConstraintViolation(f"{name} must be finite and > 0, got {value!r}")


DEFAULT_TOL = Tolerance()


def as_square(obj) -> np.ndarray:
    """Coerce to square complex128.

    Raises DimensionError if not square, NonFiniteValue if not finite.
    """
    A = np.asarray(obj, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NonFiniteValue("matrix contains non-finite entries")
    return A


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B with the row-major block convention.

    Entry ((i,k),(j,l)) equals A[i,j] * B[k,l], rows and columns indexed
    by the composite index i*dim(B)+k.
    """
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


def dagger(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(A, dtype=complex).conj().T


def frobenius(A: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(A)))


def inverse(A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Matrix inverse by Gauss-Jordan elimination with partial pivoting.

    Raises SingularMatrix when the best available pivot falls below
    ``tol.singular_tol`` relative to the magnitude of the input.
    """
    A = as_square(A)
    n = A.shape[0]
    scale = np.abs(A).max()
    if scale == 0.0:
        raise SingularMatrix("zero matrix has no inverse")
    aug = np.hstack([A.copy(), np.eye(n, dtype=complex)])
    for col in range(n):
        piv_row = col + int(np.argmax(np.abs(aug[col:, col])))
        piv = aug[piv_row, col]
        if abs(piv) <= tol.singular_tol * scale:
            raise SingularMatrix(
                f"pivot {abs(piv):.3e} below threshold {tol.singular_tol * scale:.3e} "
                f"in column {col}"
            )
        if piv_row != col:
            aug[[col, piv_row]] = aug[[piv_row, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0:
                aug[row] -= aug[row, col] * aug[col]
    return np.ascontiguousarray(aug[:, n:])


def char_poly(A: np.ndarray) -> tuple[complex, ...]:
    """Characteristic polynomial det(lambda*I - A) by the Faddeev-LeVerrier recursion.

    Returns monic coefficients in descending powers, so a dim-4 input
    yields five numbers (1, c3, c2, c1, c0).
    """
    A = as_square(A)
    n = A.shape[0]
    eye = np.eye(n, dtype=complex)
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    M = np.zeros((n, n), dtype=complex)
    for k in range(1, n + 1):
        M = A @ M + coeffs[k - 1] * eye
        coeffs[k] = -np.trace(A @ M) / k
    return tuple(coeffs)


# Computed roots of an m-fold eigenvalue scatter in a ring of radius about
# eps**(1/m) times the matrix scale; the per-multiplicity radii below, taken
# relative to max|A|, bound that scatter while staying far smaller than any
# genuine eigenvalue separation we care about.
_CLUSTER_RADIUS = {2: 5e-6, 3: 5e-4, 4: 8e-3}


def _merge_root_clusters(roots: np.ndarray, scale: float) -> np.ndarray:
    """Replace each scattered multiple-root cluster by its mean.

    Individual computed roots of an m-fold eigenvalue are only accurate to
    eps**(1/m) relative to ``scale`` (max|A| of the matrix they came from),
    so m roots merge, largest m first, when their diameter is within
    _CLUSTER_RADIUS.get(m, 2e-2) * scale; the test is unchanged under
    A -> c*A.  The leading eps**(1/m) terms spread evenly round the ring and
    cancel in the mean, which is accurate to rounding (Wilkinson, The
    Algebraic Eigenvalue Problem, 1965).  The mean replaces every member in
    place, so the roots keep the order LAPACK gave them.
    """
    out = np.array(roots, dtype=complex)
    n = len(out)
    dist = np.abs(out[:, None] - out).tolist()
    merged: set[int] = set()
    for m in range(n, 1, -1):
        allow = _CLUSTER_RADIUS.get(m, 2e-2) * scale
        for idx in map(list, combinations(range(n), m)):
            if merged.isdisjoint(idx) and all(
                dist[i][j] <= allow for i, j in combinations(idx, 2)
            ):
                out[idx] = out[idx].mean()
                merged.update(idx)
    return out


def eigenvalues(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small complex matrix.

    Roots come from LAPACK (``numpy.linalg.eigvals``).  Near-coincident
    roots are then merged into exact multiple roots at their mean (see
    _merge_root_clusters), which keeps defective spectra exact, and every
    root z must satisfy |p(z)| <= 1e-8 * sum_i |c_i| max(max|A|, |z|)^(n-i)
    for the Faddeev-LeVerrier characteristic polynomial p with coefficients
    c_i; the bound scales like p itself under A -> c*A, so the check is as
    strict at every scale.  A root that misses raises NonConvergence.
    """
    A = as_square(A)
    coeffs = np.asarray(char_poly(A))
    scale = float(np.abs(A).max())
    roots = _merge_root_clusters(np.linalg.eigvals(A), scale)
    residual = np.abs(np.polyval(coeffs, roots))
    bound = np.polyval(np.abs(coeffs), np.maximum(scale, np.abs(roots)))
    bad = np.flatnonzero(residual > 1e-8 * bound)
    if bad.size:
        i = bad[0]
        raise NonConvergence(
            f"root residual {residual[i]:.3e} exceeds 1e-8 * {bound[i]:.3e}"
        )
    return roots


def is_unitary(A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether A†A = I within tol; returns (verdict, Frobenius defect)."""
    A = as_square(A)
    n = A.shape[0]
    defect = frobenius(dagger(A) @ A - np.eye(n))
    return defect <= tol.residual_tol * n, defect
