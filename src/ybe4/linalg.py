"""Dense complex matrix kernel used throughout the package.

Everything here operates on small (dim <= 8) complex matrices stored as
``numpy.ndarray`` with dtype complex128.  Matrix products, Kronecker
products and norms defer to numpy.  Inversion is LAPACK's, behind one
scale-free test: a smallest singular value at most ``singular_tol`` times
the largest surfaces as SingularMatrix.  Eigenvalue roots come from
LAPACK; where they cluster (relative to the matrix scale) each cluster is
replaced by its mean, an exact multiple root, and every root is checked
against the independently computed Faddeev-LeVerrier characteristic
polynomial, so a root that does not solve it surfaces as NonConvergence
instead of silent garbage.  ``char_poly`` and ``eigenvalues`` also take a
stack of shape (..., n, n) and treat each matrix exactly as they treat it
alone; a single matrix is a stack with no leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
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
    singular_tol  relative threshold for a vanishing quantity; a matrix is
                  singular when sigma_min <= singular_tol * sigma_max, and
                  a gate entangles when its magic-basis radius exceeds it
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
    return _square(obj, stack=False)


def _square(obj, stack: bool) -> np.ndarray:
    """as_square, also accepting a stack of shape (..., n, n) when ``stack``."""
    A = np.asarray(obj, dtype=complex)
    ndim_ok = A.ndim >= 2 if stack else A.ndim == 2
    if not ndim_ok or A.shape[-2] != A.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NonFiniteValue("matrix contains non-finite entries")
    return A


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B with the row-major block convention.

    Entry ((i,k),(j,l)) equals A[i,j] * B[k,l], rows and columns indexed
    by the composite index i*dim(B)+k.  Two matrices are multiplied as one
    broadcast outer product, so each entry is that single product, bitwise
    as from np.kron; other operand shapes go to np.kron itself.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.ndim != 2 or B.ndim != 2:
        return np.kron(A, B)
    (m, n), (p, q) = A.shape, B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(m * p, n * q)


def dagger(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(A, dtype=complex).conj().T


def frobenius(A: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(A)))


def inverse(A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Matrix inverse from LAPACK, refused when A is singular to working precision.

    Raises SingularMatrix when the smallest singular value is at most
    ``tol.singular_tol`` times the largest; the test is unchanged under
    A -> c*A and covers the zero matrix (0 <= 0).  LAPACK inverts A times a
    power of two near 1/sigma_max.  That rescaling is exact, so in the
    normal float range the result is bitwise LAPACK's inverse of A, and
    near the ends of the range the elimination cannot overflow.  Raises
    NonFiniteValue when the singular values or the inverse are not
    representable.
    """
    A = as_square(A)
    s = np.linalg.svd(A, compute_uv=False)
    if not math.isfinite(s[0]):
        raise NonFiniteValue("singular values of the matrix overflow")
    bound = tol.singular_tol * s[0]
    if s[-1] <= bound:
        raise SingularMatrix(
            f"smallest singular value {s[-1]:.3e} <= {bound:.3e} "
            "(singular_tol times the largest)",
            value=float(s[-1]),
            bound=float(bound),
        )
    # clamped so that the factor itself is a finite float
    scale = 2.0 ** -min(max(math.frexp(s[0])[1], -1000), 1000)
    try:
        Ainv = np.linalg.inv(scale * A)
    except np.linalg.LinAlgError as err:  # an exact zero pivot under a tiny tol
        raise SingularMatrix(
            "LAPACK met an exactly zero pivot", value=float(s[-1]), bound=float(bound)
        ) from err
    # Python float arithmetic: an overflow here is inf, not a warning
    if not math.isfinite(float(np.abs(Ainv).max()) * scale):
        raise NonFiniteValue("inverse overflows the float range")
    return Ainv * scale


def char_poly(A: np.ndarray) -> np.ndarray:
    """Characteristic polynomial det(lambda*I - A) by the Faddeev-LeVerrier recursion.

    Returns monic coefficients in descending powers, so a dim-4 input
    yields five numbers (1, c3, c2, c1, c0).  A stack of shape (..., n, n)
    yields shape (..., n + 1): the recursion runs n stacked matmuls.
    """
    A = _square(A, stack=True)
    n = A.shape[-1]
    eye = np.eye(n, dtype=complex)
    coeffs = np.zeros(A.shape[:-2] + (n + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[..., k - 1, None, None] * eye
        coeffs[..., k] = -np.trace(A @ M, axis1=-2, axis2=-1) / k
    return coeffs


# Computed roots of an m-fold eigenvalue scatter in a ring of radius about
# eps**(1/m) times the matrix scale; the per-multiplicity radii below, taken
# relative to max|A|, bound that scatter while staying far smaller than any
# genuine eigenvalue separation we care about.
_CLUSTER_RADIUS = {2: 5e-6, 3: 5e-4, 4: 8e-3}


def _merge_root_clusters(roots: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Replace each scattered multiple-root cluster by its mean.

    Individual computed roots of an m-fold eigenvalue are only accurate to
    eps**(1/m) relative to ``scale`` (max|A| of the matrix they came from),
    so m roots merge, largest m first, when their diameter is within
    _CLUSTER_RADIUS.get(m, 2e-2) * scale; the test is unchanged under
    A -> c*A.  The leading eps**(1/m) terms spread evenly round the ring and
    cancel in the mean, which is accurate to rounding (Wilkinson, The
    Algebraic Eigenvalue Problem, 1965).  The mean replaces every member in
    place, so the roots keep the order LAPACK gave them.

    ``roots`` has shape (..., n) and ``scale`` the leading shape.  Each
    index subset is one array step over all rows, taken in the same
    largest-first ``combinations`` order, and a per-row mask keeps a root
    in at most one cluster.
    """
    out = np.array(roots, dtype=complex)
    n = out.shape[-1]
    rows = out.reshape(-1, n)
    scale = np.reshape(scale, -1)
    dist = np.abs(rows[:, :, None] - rows[:, None, :])
    merged = np.zeros(rows.shape, dtype=bool)
    for m, members, i, j in _subsets(n):
        allow = (_CLUSTER_RADIUS.get(m, 2e-2) * scale)[:, None, None]
        tight = (dist[:, i, j] <= allow).all(axis=2)
        for c in np.flatnonzero(tight.any(axis=0)):
            idx = members[c]
            hit = tight[:, c] & ~merged[:, idx].any(axis=1)
            if hit.any():
                cell = np.ix_(hit, idx)
                rows[cell] = rows[cell].mean(axis=1, keepdims=True)
                merged[cell] = True
    return out


@lru_cache
def _subsets(n: int) -> tuple:
    """(m, members, i, j) for m = n..2: the m-subsets of range(n) in
    ``combinations`` order, and the ends i, j of each subset's pairs."""
    out = []
    for m in range(n, 1, -1):
        members = np.array(list(combinations(range(n), m)))
        pairs = np.array([list(combinations(idx, 2)) for idx in members])
        out.append((m, members, pairs[..., 0], pairs[..., 1]))
    return tuple(out)


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row of polynomial coefficients (..., n + 1) evaluated at x (..., m)."""
    y = np.zeros_like(x)
    for k in range(coeffs.shape[-1]):
        y = y * x + coeffs[..., k, None]
    return y


def eigenvalues(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small complex matrix, or of each matrix in a stack.

    Roots come from LAPACK (``numpy.linalg.eigvals``).  Near-coincident
    roots are then merged into exact multiple roots at their mean (see
    _merge_root_clusters), which keeps defective spectra exact, and every
    root z must satisfy |p(z)| <= 1e-8 * sum_i |c_i| max(max|A|, |z|)^(n-i)
    for the Faddeev-LeVerrier characteristic polynomial p with coefficients
    c_i; the bound scales like p itself under A -> c*A, so the check is as
    strict at every scale.  A root that misses raises NonConvergence with
    the root, its residual and the bound it exceeded.

    A stack of shape (..., n, n) gives roots of shape (..., n), each row
    computed and checked as that matrix alone would be; the error then
    names the first failing matrix in row-major order as ``index``.
    """
    A = _square(A, stack=True)
    coeffs = char_poly(A)
    scale = np.abs(A).max(axis=(-2, -1))
    roots = _merge_root_clusters(np.linalg.eigvals(A), scale)
    residual = np.abs(_horner(coeffs, roots))
    bound = _horner(np.abs(coeffs), np.maximum(scale[..., None], np.abs(roots)))
    bad = (residual > 1e-8 * bound).reshape(-1, A.shape[-1])
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        i = int(np.argmax(bad[row]))
        root, res, lim = (
            v.reshape(bad.shape)[row, i]
            for v in (roots, residual, bound)
        )
        message = f"root residual {res:.3e} exceeds 1e-8 * {lim:.3e}"
        index = None
        if A.ndim > 2:
            index = row
            message += f" in stack row {row}"
        raise NonConvergence(
            message,
            root=complex(root),
            residual=float(res),
            bound=float(1e-8 * lim),
            index=index,
        )
    return roots


def is_unitary(A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether A†A = I within tol; returns (verdict, Frobenius defect)."""
    return _is_unitary(as_square(A), tol)


def _is_unitary(A: np.ndarray, tol: Tolerance) -> tuple[bool, float]:
    """is_unitary for an A that as_square has already returned."""
    n = A.shape[0]
    # entries near the float range overflow A†A; such an A is not unitary
    with np.errstate(over="ignore", invalid="ignore"):
        defect = frobenius(dagger(A) @ A - np.eye(n))
    if not np.isfinite(defect):
        return False, float("inf")
    return defect <= tol.residual_tol * n, defect
