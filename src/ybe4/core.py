"""Yang-Baxter residuals, the swap correspondence, and braid group images.

Two forms of the equation appear for an operator on a two-fold tensor
product.  With R acting on C^d (x) C^d and I the identity on one factor:

  braided    (R (x) I)(I (x) R)(R (x) I) = (I (x) R)(R (x) I)(I (x) R)
  algebraic  R12 R13 R23 = R23 R13 R12

where Rab acts as R on tensor slots a,b of a three-fold product and as the
identity on the remaining slot.  The two forms are exchanged by composing
with the swap operator: M satisfies the algebraic form exactly when M P
satisfies the braided form, with P the swap.

Whether R solves the equation is decided in one place, solution_check,
which returns the embedding-route residual with the bound it must meet:
tol.residual_tol * max(1, max|R|)**3, which is residual_tol for every
unitary R.  Every command and is_braided_solution / is_algebraic_solution
use it; contraction_residual is an independent cross-check of the residual.

Matrix convention: entry R[d*a+b, d*i+j] is the coefficient of basis vector
e_a (x) e_b in the image of e_i (x) e_j, i.e. upper indices label rows.

Operators on tensor powers are built on their tensor axes instead of by
dense products: R13 is R12 with the second and third tensor slots
permuted, and braid_rep applies each letter to the two strand axes it acts
on, letters * d^(2n+2) multiply-adds for a word on n strands instead of
letters * d^(3n).  The image still has d^(2n) entries, so braid_rep keeps
its cap of 6 strands by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonFiniteValue, SingularMatrix, SizeExceeded
from .linalg import DEFAULT_TOL, Tolerance, as_square, frobenius, inverse, kron

__all__ = [
    "swap_matrix",
    "braided_residual",
    "algebraic_residual",
    "solution_check",
    "is_braided_solution",
    "is_algebraic_solution",
    "contraction_residual",
    "compose_with_swap",
    "BraidWord",
    "braid_rep",
]


def swap_matrix(d: int = 2) -> np.ndarray:
    """The operator P(u (x) v) = v (x) u on C^d (x) C^d."""
    P = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            P[j * d + i, i * d + j] = 1.0
    return P


def _split_dim(R: np.ndarray) -> int:
    n = R.shape[0]
    d = round(n ** 0.5)
    if d * d != n:
        raise DimensionError(f"matrix of size {n} is not an operator on a tensor square")
    return d


def braided_residual(R: np.ndarray) -> float:
    """Frobenius norm of (R(x)I)(I(x)R)(R(x)I) - (I(x)R)(R(x)I)(I(x)R)."""
    R = as_square(R)
    return _braided_residual(R, _split_dim(R))


def _braided_residual(R: np.ndarray, d: int) -> float:
    """braided_residual for a validated R on C^d (x) C^d."""
    eye = np.eye(d, dtype=complex)
    L = kron(R, eye)
    M = kron(eye, R)
    return frobenius(L @ M @ L - M @ L @ M)


def _algebraic_embeddings(R: np.ndarray, d: int):
    eye = np.eye(d, dtype=complex)
    R12 = kron(R, eye)
    R23 = kron(eye, R)
    # R13 = (I (x) P) R12 (I (x) P): swap tensor slots 2 and 3 on both sides
    R13 = R12.reshape((d,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(d ** 3, d ** 3)
    return R12, R13, R23


def algebraic_residual(R: np.ndarray) -> float:
    """Frobenius norm of R12 R13 R23 - R23 R13 R12."""
    R = as_square(R)
    return _algebraic_residual(R, _split_dim(R))


def _algebraic_residual(R: np.ndarray, d: int) -> float:
    """algebraic_residual for a validated R on C^d (x) C^d."""
    R12, R13, R23 = _algebraic_embeddings(R, d)
    return frobenius(R12 @ R13 @ R23 - R23 @ R13 @ R12)


_RESIDUALS = {"braided": _braided_residual, "algebraic": _algebraic_residual}


def solution_check(
    R: np.ndarray, form: str = "braided", tol: Tolerance = DEFAULT_TOL
) -> tuple[float, float]:
    """(residual, bound): R solves the equation in ``form`` when residual <= bound.

    The residual is the embedding route, braided_residual or
    algebraic_residual.  The bound is

        tol.residual_tol * max(1, max|R|)**3

    Each side of the equation is a sum of products of three entries of R,
    so both sides round at the size of max|R|**3; that is 1 or less for a
    unitary R, whose bound is residual_tol itself.  c R solves the equation
    whenever R does and its residual grows like c**3, so the bound grows
    with it above unit size.  Raises ValueError for an unknown form and
    NonFiniteValue when the bound or the residual overflows.
    """
    if form not in _RESIDUALS:
        raise ValueError(f"unknown form {form!r}, expected 'braided' or 'algebraic'")
    R = as_square(R)
    scale = np.abs(R).max()
    with np.errstate(over="ignore", invalid="ignore"):
        bound = tol.residual_tol * max(1.0, scale) ** 3
        residual = _RESIDUALS[form](R, _split_dim(R))
    if not (np.isfinite(bound) and np.isfinite(residual)):
        raise NonFiniteValue(
            f"the {form} residual of a matrix with max entry {scale:.3e} overflows"
        )
    return residual, float(bound)


def is_braided_solution(R: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    residual, bound = solution_check(R, "braided", tol)
    return residual <= bound


def is_algebraic_solution(R: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    residual, bound = solution_check(R, "algebraic", tol)
    return residual <= bound


# output indices x,y,z then input indices i,j,k, as in the formulas below
_CONTRACTIONS = {
    "braided": ("abij,czbk,xyac->xyzijk", "npjk,xmin,yzmp->xyzijk"),
    "algebraic": ("bcjk,uzic,xyub->xyzijk", "mnij,xwmk,yznw->xyzijk"),
}


def contraction_residual(R: np.ndarray, form: str = "braided") -> float:
    """The same residuals computed from explicit index contractions.

    Written out in components without building the d^3 x d^3 embeddings,
    as an independent cross-check of the matrix route.  With the tensor
    accessor T[a,b,i,j] = R[d*a+b, d*i+j]:

    braided, coefficient of output (x,y,z) given input (i,j,k):
      lhs = sum_{a,b,c} T[a,b,i,j] T[c,z,b,k] T[x,y,a,c]
      rhs = sum_{m,n,p} T[n,p,j,k] T[x,m,i,n] T[y,z,m,p]

    algebraic:
      lhs = sum_{b,c,u} T[b,c,j,k] T[u,z,i,c] T[x,y,u,b]
      rhs = sum_{m,n,w} T[m,n,i,j] T[x,w,m,k] T[y,z,n,w]
    """
    R = as_square(R)
    d = _split_dim(R)
    if form not in _CONTRACTIONS:
        raise ValueError(f"unknown form {form!r}, expected 'braided' or 'algebraic'")
    T = R.reshape(d, d, d, d)
    lhs, rhs = (np.einsum(spec, T, T, T) for spec in _CONTRACTIONS[form])
    return frobenius(lhs - rhs)


def compose_with_swap(R: np.ndarray) -> np.ndarray:
    """R P, the bridge between the algebraic and braided forms."""
    R = as_square(R)
    d = _split_dim(R)
    return R @ swap_matrix(d)


@dataclass(frozen=True)
class BraidWord:
    """A word in braid group generators.

    letters holds (generator index, exponent) pairs; generator i acts on
    strands i, i+1 (1-based) and the exponent must be +1 or -1.  The empty
    word is the identity braid.
    """

    n_strands: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.n_strands < 2:
            raise ValueError("a braid needs at least 2 strands")
        for idx, exp in self.letters:
            if not 1 <= idx <= self.n_strands - 1:
                raise ValueError(
                    f"generator index {idx} out of range for {self.n_strands} strands"
                )
            if exp not in (-1, 1):
                raise ValueError(f"exponent must be +1 or -1, got {exp}")


def braid_rep(R: np.ndarray, word: BraidWord, max_strands: int = 6) -> np.ndarray:
    """Image of a braid word when generator i maps to I^(i-1) (x) R (x) I^(n-1-i).

    The image is kept as a tensor with one row axis of size d^n and one
    column axis per strand; each letter contracts the two strand axes it
    acts on with R (or R^-1) as a (d, d, d, d) tensor, d^(2n+2)
    multiply-adds, and no d^n x d^n generator is built.  The result still
    has d^n x d^n entries, so n is capped at ``max_strands``.  Inverse
    letters require R to be invertible.
    """
    R = as_square(R)
    d = _split_dim(R)
    n = word.n_strands
    if n > max_strands:
        raise SizeExceeded(
            f"{n} strands needs a {d ** n} dimensional space (cap: {max_strands} strands)"
        )
    dim = d ** n
    out = np.eye(dim, dtype=complex).reshape((dim,) + (d,) * n)
    Rinv: np.ndarray | None = None
    for idx, exp in word.letters:
        if exp == 1:
            block = R
        else:
            if Rinv is None:
                try:
                    Rinv = inverse(R)
                except SingularMatrix as err:
                    raise SingularMatrix(
                        "braid word uses an inverse letter but R is singular",
                        value=err.value,
                        bound=err.bound,
                    ) from err
            block = Rinv
        # column axes idx, idx+1 hold strands idx, idx+1 (1-based)
        out = np.tensordot(out, block.reshape(d, d, d, d), axes=((idx, idx + 1), (0, 1)))
        out = np.moveaxis(out, (-2, -1), (idx, idx + 1))
    return out.reshape(dim, dim)
