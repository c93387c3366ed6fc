"""Dense complex matrix kernel used throughout the package.

Everything here operates on small (dim <= 8) complex matrices stored as
``numpy.ndarray`` with dtype complex128.  Matrix products, Kronecker
products and norms defer to numpy.  Inversion is LAPACK's, behind one
scale-free test: a smallest singular value at most ``singular_tol`` times
the largest surfaces as SingularMatrix.  Eigenvalue roots come from
LAPACK; where they cluster (relative to the matrix scale) each cluster is
replaced by its mean, an exact multiple root, and every root is checked
against the characteristic polynomial, computed without LAPACK from the
power traces tr A^k by Newton's identities, so a root that does not solve
it surfaces as NonConvergence instead of silent garbage.  ``char_poly``
and ``eigenvalues`` also take a stack of shape (..., n, n) and treat each
matrix exactly as they treat it alone; a single matrix is a stack with no
leading axes.
"""

from __future__ import annotations

import math
import numbers
import operator
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
            check_real(field.name, getattr(self, field.name), positive=True)


# numbers.Real and numbers.Number, the common concrete types first: isinstance
# tries a tuple in order, and an ABC check costs several times a concrete one
_REAL_TYPES = (float, int, np.floating, np.integer, numbers.Real)
_NUMBER_TYPES = (complex, float, int, np.number, numbers.Number)


def check_real(name: str, value, positive: bool = False) -> None:
    """Raise ConstraintViolation unless value is a finite real number, and
    > 0 when ``positive``; a bool is not taken as the number 0 or 1.  A NaN
    bound fails every comparison and a negative one passes none, so either
    would turn each check into a silent wrong verdict."""
    if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
        raise ConstraintViolation(
            f"{name} must be a real number, got {type(value).__name__}"
        )
    try:
        ok = math.isfinite(value) and (value > 0 or not positive)
    except OverflowError:  # an int past the float range
        ok = False
    if not ok:
        bound = "finite and > 0" if positive else "finite"
        raise ConstraintViolation(f"{name} must be {bound}, got {value!r}")


def check_number(name: str, value) -> None:
    """Raise ConstraintViolation unless value is a number (numpy scalars
    are); a bool is not taken as the number 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, _NUMBER_TYPES):
        raise ConstraintViolation(f"{name} must be a number, got {type(value).__name__}")


def check_instance(name: str, value, cls: type | tuple, what: str = "") -> None:
    """Raise ConstraintViolation unless value is a cls, described as ``what``
    (default: "a <class name>"); an object of the wrong type would otherwise
    fail later, as a bare AttributeError or TypeError."""
    if not isinstance(value, cls):
        raise ConstraintViolation(
            f"{name} must be {what or 'a ' + cls.__name__}, got {type(value).__name__}"
        )


def integer_at_least(name: str, value, least: int) -> int:
    """value as an int; ConstraintViolation unless it is an integer >= least
    (a bool is not taken as the integer 0 or 1)."""
    try:
        number = operator.index(value)
    except TypeError:
        number = least - 1
    if number < least or isinstance(value, bool):
        raise ConstraintViolation(f"{name} must be an integer >= {least}, got {value!r}")
    return number


DEFAULT_TOL = Tolerance()


def as_square(obj) -> np.ndarray:
    """Coerce to square complex128.

    Raises ConstraintViolation if not an array of numbers, DimensionError
    if not square, NonFiniteValue if not finite.
    """
    return _square(obj, stack=False)


def _square(obj, stack: bool) -> np.ndarray:
    """as_square, also accepting a stack of shape (..., n, n) when ``stack``."""
    A = _numeric(obj)
    ndim_ok = A.ndim >= 2 if stack else A.ndim == 2
    if not ndim_ok or A.shape[-2] != A.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NonFiniteValue("matrix contains non-finite entries")
    return A


def _require_entries(A: np.ndarray) -> None:
    """DimensionError for 0 x 0 matrices, which have no eigenvalue, no
    singular value and no max|A| to scale by."""
    if A.shape[-1] == 0:
        raise DimensionError(f"expected at least a 1 x 1 matrix, got shape {A.shape}")


def _numeric(obj, dtype=complex) -> np.ndarray:
    """np.asarray(obj, dtype), or ConstraintViolation (a ValueError) for a
    string, dict or other object that is not an array of numbers.
    ``dtype=None`` keeps a numeric input's own dtype."""
    try:
        A = np.asarray(obj, dtype=dtype)
    except (TypeError, ValueError):
        pass
    else:
        if A.dtype.kind in "biufc":
            return A
    raise ConstraintViolation(f"expected an array of numbers, got {type(obj).__name__}")


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B with the row-major block convention.

    Entry ((i,k),(j,l)) equals A[i,j] * B[k,l], rows and columns indexed
    by the composite index i*dim(B)+k.  Two matrices are multiplied as one
    broadcast outer product, so each entry is that single product, bitwise
    as from np.kron; other operand shapes go to np.kron itself.
    """
    A = _numeric(A)
    B = _numeric(B)
    if A.ndim != 2 or B.ndim != 2:
        return np.kron(A, B)
    (m, n), (p, q) = A.shape, B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(m * p, n * q)


def dagger(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return _numeric(A).conj().T


def frobenius(A: np.ndarray) -> float:
    """Frobenius norm."""
    # a real input stays real: as complex, BLAS sums it in another order
    return float(np.linalg.norm(_numeric(A, dtype=None)))


def inverse(A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Matrix inverse from LAPACK, refused when A is singular to working precision.

    Raises SingularMatrix when the smallest singular value is at most
    ``tol.singular_tol`` times the largest; the test is unchanged under
    A -> c*A and covers the zero matrix (0 <= 0).  LAPACK inverts A times a
    power of two near 1/sigma_max.  That rescaling is exact, so in the
    normal float range the result is bitwise LAPACK's inverse of A, and
    near the ends of the range the elimination cannot overflow.  Raises
    NonFiniteValue when the singular values or the inverse are not
    representable, and DimensionError for a 0 x 0 matrix.
    """
    check_instance("tol", tol, Tolerance)
    A = as_square(A)
    _require_entries(A)
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
    """Characteristic polynomial det(lambda*I - A) from power traces.

    Returns monic coefficients in descending powers, so a dim-4 input
    yields five numbers (1, c1, c2, c3, c4).  A stack of shape (..., n, n)
    yields shape (..., n + 1).  The power sums p_k = tr A^k, k = 1..n, come
    from A, A^2, ..., A^h with h = ceil(n/2), one stacked matmul per power
    past A (one in all at n = 4): p_1 = tr A, and for k >= 2 p_k is the sum
    of the entries of A^i * (A^j)^T with i = ceil(k/2) and j = k - i.
    Newton's identities k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1)
    then give the coefficients.  Every input is computed as a stack of
    shape (-1, n, n), so a single matrix takes exactly the array
    arithmetic of one row of a stack.  Nothing here calls LAPACK.
    """
    A = _square(A, stack=True)
    lead, n = A.shape[:-2], A.shape[-1]
    rows = math.prod(lead)
    powers = [A.reshape(rows, n, n)]
    for _ in range(1, (n + 1) // 2):
        powers.append(powers[-1] @ powers[0])
    p = [np.einsum("rii->r", powers[0])]
    for k in range(2, n + 1):
        i = (k + 1) // 2
        p.append(np.einsum("rab,rba->r", powers[i - 1], powers[k - i - 1]))
    coeffs = np.ones((n + 1, rows), dtype=complex)
    for k in range(1, n + 1):
        total = p[k - 1]
        for j in range(1, k):
            total = total + coeffs[j] * p[k - j - 1]
        coeffs[k] = -total / k
    return coeffs.T.reshape(lead + (n + 1,))


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

    ``roots`` has shape (..., n) and ``scale`` the leading shape.  The
    pairwise distances are compared with every radius in one step, which
    gives each row a "tight" bit per index subset.  The clusters a row
    merges depend only on those bits (_merge_plan), so the plan is made
    once per distinct pattern, and each cluster's mean is taken from the
    unmerged roots, one gather per cluster size.
    """
    out = np.array(roots, dtype=complex)
    n = out.shape[-1]
    if n < 2 or not out.size:  # no pair of roots
        return out
    rows = out.reshape(-1, n)
    radius, ends, pairs, _ = _cluster_tables(n)
    # one column per row from here on, so every step loops over the rows
    cols = rows.T
    dist = np.abs(cols[ends[0]] - cols[ends[1]])
    close = dist <= radius * np.reshape(scale, -1)
    tight = close.reshape(-1, len(rows))[pairs].all(axis=1)
    patterns = np.packbits(tight, axis=0)
    # rows sorted by pattern (a lexsort of the packed bytes; np.unique over
    # rows cost more than the rest of the merge): each run of equal
    # patterns shares one plan
    order = np.lexsort(patterns)
    keys = patterns.T[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    bounds = np.flatnonzero(first).tolist() + [len(order)]
    base = order[:, None, None] * n  # flat index of each sorted row's root 0
    clusters: dict = {}
    for start, stop in zip(bounds, bounds[1:]):
        for idx in _merge_plan(n, keys[start].tobytes()):
            m = idx.shape[1]
            clusters.setdefault(m, []).append((base[start:stop] + idx).reshape(-1, m))
    flat = out.reshape(-1)
    for parts in clusters.values():
        cell = np.concatenate(parts)
        flat[cell] = flat[cell].mean(axis=1, keepdims=True)
    return out


@lru_cache
def _cluster_tables(n: int) -> tuple:
    """(radius, ends, pairs, subsets) for the cluster search on n >= 2 roots.

    subsets lists the m-subsets of range(n) for m = n..2, largest first and
    each size in ``combinations`` order.  ends holds the two ends of each
    pair i < j, in ``combinations`` order.  radius[m - 2] is the radius for
    size m, shaped to broadcast over the (pairs, rows) distances; row s of
    pairs holds the indices of subset s's pairs in the resulting (radii *
    pairs, rows) mask, padded with its first pair."""
    subsets = [idx for m in range(n, 1, -1) for idx in combinations(range(n), m)]
    radius = np.array([_CLUSTER_RADIUS.get(m, 2e-2) for m in range(2, n + 1)])
    ends = list(combinations(range(n), 2))
    width = len(ends)
    pairs = np.zeros((len(subsets), width), dtype=np.intp)
    for s, idx in enumerate(subsets):
        flat = [(len(idx) - 2) * width + ends.index(pair) for pair in combinations(idx, 2)]
        pairs[s] = flat + flat[:1] * (width - len(flat))
    return radius[:, None, None], np.array(ends).T, pairs, subsets


@lru_cache(maxsize=4096)
def _merge_plan(n: int, pattern: bytes) -> tuple:
    """The clusters that a row of n roots merges, given its tight bits packed
    in ``pattern``: each tight subset in _cluster_tables order that shares
    no root with a cluster taken before it.  One read-only (clusters, m)
    index array per cluster size m, largest first."""
    tight = np.unpackbits(np.frombuffer(pattern, dtype=np.uint8)).tolist()
    *_, subsets = _cluster_tables(n)
    taken: set = set()
    by_size: dict = {}
    for bit, idx in zip(tight, subsets):
        if bit and taken.isdisjoint(idx):
            by_size.setdefault(len(idx), []).append(idx)
            taken.update(idx)
    plan = tuple(np.array(group) for group in by_size.values())
    for idx in plan:
        idx.flags.writeable = False
    return plan


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
    for the characteristic polynomial p of ``char_poly`` with coefficients
    c_i; the bound scales like p itself under A -> c*A, so the check is as
    strict at every scale.  The check runs on A and the roots times one
    exact power of two per matrix, near 1/max|A| and clamped as in
    ``inverse``, so p and its bound neither overflow nor underflow; in the
    normal float range every product scales exactly and the check decides
    as it would on A itself.  The roots returned are LAPACK's, merged.  A
    root that misses raises NonConvergence with the root, its residual and
    the bound it exceeded, in A's own units.

    A stack of shape (..., n, n) gives roots of shape (..., n), each row
    computed and checked as that matrix alone would be; the error then
    names the first failing matrix in row-major order as ``index``.  A
    0 x 0 matrix raises DimensionError.
    """
    A = _square(A, stack=True)
    _require_entries(A)
    n = A.shape[-1]
    scale = np.abs(A).max(axis=(-2, -1))
    roots = _merge_root_clusters(np.linalg.eigvals(A), scale)
    # one exact power of two 2**-e per matrix, e clamped as in inverse
    e = np.minimum(np.maximum(np.frexp(scale)[1], -1000), 1000)[..., None]
    factor = np.ldexp(1.0, -e)
    coeffs = char_poly(A * factor[..., None])
    unit_roots = roots * factor
    residual = np.abs(_horner(coeffs, unit_roots))
    top = np.maximum(scale[..., None] * factor, np.abs(unit_roots))
    bound = _horner(np.abs(coeffs), top)
    bad = (residual > 1e-8 * bound).reshape(-1, n)
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        i = int(np.argmax(bad[row]))
        root, res_unit, lim_unit = (
            v.reshape(bad.shape)[row, i]
            for v in (roots, residual, bound)
        )
        # back in A's units: the scaled p(z) and bound are 2**(-n e) times those
        with np.errstate(over="ignore"):
            res, lim = np.ldexp([res_unit, lim_unit], n * int(e.reshape(-1)[row]))
        message = f"root residual {res:.3e} exceeds 1e-8 * {lim:.3e}"
        if not 0 < lim < math.inf:
            ratio = res_unit / (1e-8 * lim_unit)
            message += f" (beyond the float range; {ratio:.3e} times the bound)"
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
    check_instance("tol", tol, Tolerance)
    return _is_unitary(as_square(A), tol)


@lru_cache(maxsize=8)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, built once per n."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _is_unitary(A: np.ndarray, tol: Tolerance) -> tuple[bool, float]:
    """is_unitary for an A that as_square has already returned."""
    n = A.shape[0]
    # entries near the float range overflow A†A; such an A is not unitary
    with np.errstate(over="ignore", invalid="ignore"):
        defect = frobenius(dagger(A) @ A - _identity(n))
    if not math.isfinite(defect):
        return False, float("inf")
    return defect <= tol.residual_tol * n, defect
