"""Entanglement verdicts for two-qubit gates and classification into families.

A unitary solution of the braided equation is a two-qubit gate.  Two
questions about such a gate are answered here:

* does it create entanglement from any product state?  One magic-basis
  spectrum decides and witnesses it: the gate entangles when the radius rho
  of the smallest circle around the eigenvalues of S = G_M^T G_M exceeds
  Tolerance.singular_tol, and the witness attains output pair determinant
  rho / 2.  S is scalar (rho = 0) exactly for A (x) B and (A (x) B) SWAP;
  when ||S - tr(S)/4 I||_F is at most half that bound, which caps rho, the
  gate is declared local without computing the spectrum.

* which of the five families does it belong to, and for which data
  (Q, k, parameters)?  The F5 stage reads k off the trace.  The F1, F4 and
  F3 stages share one reader: M = R_b P, M^4 and M^2 are diagonal in a
  product basis U (x) U of their members, U comes in closed form from the
  realignment, and k and the parameters are read from M in that basis.
  Members of F2 always carry a diagonal-family certificate and are tagged
  F1.  Every accepted answer carries a reconstruction whose distance to
  the input is at most 1e-6, so the result is a checkable certificate, not
  a heuristic label.  A certificate whose rebuild is bound to miss, by the
  entry-modulus floor that classify describes, is not rebuilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import solution_check, swap_matrix
from .errors import (
    ConstraintViolation,
    DimensionError,
    EntangledState,
    NonFiniteValue,
    NotASolution,
    NotUnitary,
    ZeroState,
)
from .families import FamilySpec, family_member
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _is_unitary,
    as_square,
    dagger,
    frobenius,
    kron,
)

__all__ = [
    "TwoQubitState",
    "ProductWitness",
    "GateEntanglementReport",
    "ClassificationResult",
    "realign",
    "is_product_state",
    "is_entangling_gate",
    "classify",
]

_SWAP = swap_matrix(2)
_EYE4 = np.eye(4)
_ACCEPT = 1e-6


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A normalized state of two qubits in the basis 00, 01, 10, 11."""

    vec: np.ndarray

    def __post_init__(self):
        v = np.array(self.vec, dtype=complex).reshape(-1)
        if v.shape != (4,):
            raise DimensionError(f"expected 4 amplitudes, got shape {v.shape}")
        top = np.abs(v.view(float)).max()  # of real and imaginary parts
        if not math.isfinite(top):
            raise NonFiniteValue("state amplitudes must be finite")
        if top == 0:
            raise ZeroState("zero vector is not a state")
        # exact power-of-two rescale: largest part in [1, 2), so no over/underflow
        v = np.ldexp(v.view(float), 1 - math.frexp(top)[1]).view(complex)
        object.__setattr__(self, "vec", v / np.linalg.norm(v))

    @property
    def pair_determinant(self) -> complex:
        """det of the 2x2 amplitude table; zero exactly for product states."""
        v = self.vec
        return v[0] * v[3] - v[1] * v[2]

    def is_product(self, tol: float = 1e-9) -> bool:
        return abs(self.pair_determinant) <= tol

    def factors(self, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
        """Local factors u, v with u (x) v equal to the state (products only)."""
        if not self.is_product(tol):
            raise EntangledState("state is entangled, no product factorization")
        W = self.vec.reshape(2, 2)
        u = W[:, int(np.argmax(np.linalg.norm(W, axis=0)))]
        v = W[int(np.argmax(np.linalg.norm(W, axis=1))), :]
        u = u / np.linalg.norm(u)
        v = v / np.linalg.norm(v)
        v = v * np.vdot(np.outer(u, v).reshape(-1), self.vec)
        return u, v


def is_product_state(vec, tol: float = 1e-9) -> bool:
    return TwoQubitState(vec).is_product(tol)


def realign(G: np.ndarray) -> np.ndarray:
    """Reshuffle G so that local pairs A (x) B become rank-1 matrices."""
    G = as_square(G)
    if G.shape != (4, 4):
        raise DimensionError("realignment is defined for 4x4 matrices here")
    return _realign(G)


def _realign(G: np.ndarray) -> np.ndarray:
    """realign for a complex 4x4 array that is already validated."""
    return G.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


@dataclass(frozen=True, eq=False)
class ProductWitness:
    """A product input whose image under the gate is as entangled as possible.

    angles                   (theta1, phi1, theta2, phi2): qubit j of the input
                             is (cos theta_j, e^{i phi_j} sin theta_j), up to a
                             global phase
    state                    the input u (x) v
    output_pair_determinant  |det| of the output's 2x2 amplitude table, rho / 2,
                             the maximum over product inputs (at most 1/2)
    """

    angles: tuple[float, float, float, float]
    state: TwoQubitState
    output_pair_determinant: float


@dataclass(frozen=True, eq=False)
class GateEntanglementReport:
    entangling: bool
    witness: ProductWitness | None


# Columns (|00>+|11>)/sqrt2, i(|00>-|11>)/sqrt2, i(|01>+|10>)/sqrt2 and
# (|01>-|10>)/sqrt2.  The state _MAGIC @ a has pair determinant a^T a / 2.
_MAGIC = np.array(
    [[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]]
) / np.sqrt(2)


def _takagi_real(S: np.ndarray) -> np.ndarray:
    """Real orthogonal O with O^T S O diagonal, for a symmetric unitary S.

    Re S and Im S commute, so the eigenbasis of Re S diagonalizes Im S too,
    except inside a repeated eigenspace of Re S, which Im S then splits.
    """
    x, O = np.linalg.eigh(S.real)
    start = 0
    for end in range(1, 5):
        if end == 4 or x[end] - x[end - 1] > 1e-8:
            if end - start > 1:
                V = O[:, start:end]
                O[:, start:end] = V @ np.linalg.eigh(V.T @ S.imag @ V)[1]
            start = end
    return O


def _witness_weights(d: np.ndarray) -> np.ndarray:
    """w with sum w = 0 and sum |w| = 1 maximizing |sum w_k d_k|, all |d_k| = 1.

    The maximum is the radius of the smallest circle around the d_k.
    """
    order = np.argsort(np.angle(d))
    phases = np.angle(d[order])
    # arcs[i] runs from the i-th to the (i+1)-th point in angular order
    arcs = np.diff(np.append(phases, phases[0] + 2 * np.pi))
    w = np.zeros(4, dtype=complex)
    widest = int(np.argmax(arcs))
    # F4 members give d = {A, A, -A, -A}, whose half-turn arcs rounding can
    # leave just below pi, where the triangle below degenerates; the chord
    # loses at most (1e-6)^2 / 16 on an arc that short of pi
    if arcs[widest] >= np.pi - 1e-6:
        # the points lie on a half circle: the smallest circle has the chord
        # across the widest arc as its diameter
        w[order[widest]], w[order[(widest + 1) % 4]] = 0.5, -0.5
        return w
    # the origin is inside the hull, the radius is 1, and the triangle left
    # after dropping the point with the shortest neighbouring arcs holds it;
    # its barycentric weights are the sines of the arcs facing each vertex
    drop = int(np.argmin(arcs + np.roll(arcs, 1)))
    keep = order[(drop + np.arange(1, 4)) % 4]
    facing = arcs[(drop + np.array([2, 3, 1])) % 4]
    facing[1] += arcs[drop]
    lam = np.sin(facing)
    w[keep] = lam / lam.sum() * np.conj(d[keep])
    return w


def _as_gate(G, tol: Tolerance) -> np.ndarray:
    """G as a complex 4x4 array; DimensionError or NotUnitary when it is not one."""
    G = as_square(G)
    if G.shape != (4, 4):
        raise DimensionError(f"expected a 4x4 gate, got shape {G.shape}")
    ok, defect = _is_unitary(G, tol)
    if not ok:
        raise NotUnitary(f"input has unitarity defect {defect:.3e}")
    return G


def _qubit_angles(u: np.ndarray) -> tuple[float, float]:
    """theta, phi with u equal to (cos theta, e^{i phi} sin theta) up to phase."""
    return (
        float(np.arctan2(abs(u[1]), abs(u[0]))),
        float(np.angle(u[1] * np.conj(u[0]))),
    )


def is_entangling_gate(
    G: np.ndarray,
    witness: bool = True,
    tol: Tolerance = DEFAULT_TOL,
) -> GateEntanglementReport:
    """Whether the gate maps some product state to an entangled one.

    With S = O diag(d) O^T (magic basis B), the product input B a has output
    pair determinant sum w_k d_k / 2, w = (O^T a)^2, sum w = 0, sum |w| = 1;
    the best is rho / 2, rho the radius of the smallest circle around the d_k
    (Kraus and Cirac, PRA 63, 062309, 2001), and the witness attains it.
    S is scalar, so rho = 0, exactly for local gates and their compositions
    with the swap (Makhlin, Quantum Inf. Process. 1, 243, 2002).  The verdict
    is rho > tol.singular_tol; rho is scale-free, as G is unitary.  For the
    normal S and c = tr(S) / 4, rho <= ||S - c I||_2 <= ||S - c I||_F, so a
    gate with ||S - c I||_F <= tol.singular_tol / 2 is not entangling and
    the spectrum is not computed; the half leaves the computed rho room for
    rounding.
    """
    G = _as_gate(G, tol)
    GM = dagger(_MAGIC) @ G @ _MAGIC
    S = GM.T @ GM
    if frobenius(S - np.trace(S) / 4 * _EYE4) <= tol.singular_tol / 2:
        return GateEntanglementReport(entangling=False, witness=None)
    O = _takagi_real(S)
    d = np.diag(O.T @ S @ O)
    w = _witness_weights(d)
    entangling = bool(abs(w @ d) > tol.singular_tol)
    if not (entangling and witness):
        return GateEntanglementReport(entangling=entangling, witness=None)
    u, v = TwoQubitState(_MAGIC @ (O @ np.sqrt(w))).factors()
    state = TwoQubitState(np.outer(u, v).reshape(-1))
    out = G @ state.vec
    det = float(abs(out[0] * out[3] - out[1] * out[2]))
    found = ProductWitness(_qubit_angles(u) + _qubit_angles(v), state, det)
    return GateEntanglementReport(entangling=True, witness=found)


@dataclass(frozen=True, eq=False)
class ClassificationResult:
    """Outcome of classify: family label, certificate spec, rebuild residual."""

    family: str | None
    spec: FamilySpec | None
    residual: float
    message: str


# Entry moduli |X| of every rebuild a stage proposes, in the basis of its C,
# as k and the parameters are unimodular: _EYE4 for F5 (Q = I, so C is Rb
# itself) and F1, the anti-diagonal for F3, and the Hadamard-like pattern
# for F4.
_ANTI_DIAGONAL = np.fliplr(np.eye(4))
_HADAMARD_LIKE = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]]
) / np.sqrt(2)

# (certificate, C, |X|, message): C is the input in the product basis of the
# certificate, where its rebuild is X
_Candidate = tuple[FamilySpec, np.ndarray, np.ndarray, str]


def _accept(
    Rb: np.ndarray,
    spec: FamilySpec,
    C: np.ndarray,
    pattern: np.ndarray,
    message: str,
    tol: Tolerance,
) -> ClassificationResult | None:
    # The rebuild residual is ||X - C||_F, and ||x| - |c|| <= |x - c| entry
    # by entry, so the floor ||pattern - |C|||_F never exceeds it.  Above
    # twice the acceptance bound no rounding of the two routes can close the
    # gap, and the rebuild is not paid for.
    if frobenius(np.abs(C) - pattern) > 2 * _ACCEPT:
        return None
    try:
        member = family_member(spec, tol=tol)
    except ConstraintViolation:
        return None
    residual = frobenius(member - Rb)
    if residual > _ACCEPT:
        return None
    return ClassificationResult(spec.family, spec, residual, message)


def _try_f5(Rb: np.ndarray) -> Iterator[_Candidate]:
    k = np.trace(Rb) / 4
    if abs(k) < 0.5:
        return
    spec = FamilySpec("F5", np.eye(2), k / abs(k))
    yield spec, Rb, _EYE4, "scalar multiple of the identity"


_VEC_I = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)


def _local_basis(X: np.ndarray) -> np.ndarray:
    """Unitary U with (U (x) U)^dag X (U (x) U) diagonal, for X that has one.

    With N = U Z U^dag such an X is a I + b N (x) I + c I (x) N + e N (x) N,
    so the columns of its realignment and of the transpose lie in the span
    of vec(I) and vec(N), and tr N = 0 makes the two orthogonal.  With
    vec(I) projected out, every column is a multiple of vec(N).
    """
    R = _realign(X)
    R = np.hstack([R, R.T])
    R = R - np.outer(_VEC_I, _VEC_I @ R)
    S = R[:, int(np.argmax(np.linalg.norm(R, axis=0)))].reshape(2, 2)
    # N is Hermitian with tr(N N) = 2, which fixes the phase of S up to sign
    S = S * np.exp(-0.5j * np.angle(np.trace(S @ S)))
    _, U = np.linalg.eigh(S + dagger(S))
    if abs(U[0, 0]) ** 2 < 0.5:
        U = U[:, ::-1]  # keep the corners of Q away from zero
    return U


def _try_f1(M: np.ndarray) -> Iterator[_Candidate]:
    # An F1 member is M = Rb P = k (U (x) U) diag(1, p, q, r) (U (x) U)^dag
    # with U unitary: a Gram-diagonal Q is U diag(s1, s2), and the diagonal
    # factor commutes with the pattern.
    U = _local_basis(M)
    A = kron(U, U)
    C = dagger(A) @ M @ A
    # snap the moduli the family demands; the rebuild check has the last word
    d = np.exp(1j * np.angle(np.diag(C)))
    params = {"p": d[1] / d[0], "q": d[2] / d[0], "r": d[3] / d[0]}
    spec = FamilySpec("F1", U, d[0], params)
    yield spec, C, _EYE4, "diagonal pattern in a product basis"


def _try_f4(M: np.ndarray, M4: np.ndarray) -> Iterator[_Candidate]:
    # An F4 member is M = k (U (x) U) H (U (x) U)^dag with U unitary, since
    # |a| = |d| makes a Gram-diagonal Q a multiple of a unitary, and with H
    # the Hadamard-like pattern H^4 = -Z (x) Z.  U comes back up to the order
    # and the phases e^{i a}, e^{i b} of its columns; H commutes with Z (x) Z,
    # so the phases act only through w = e^{i (b - a)}, up to sign, and
    # C_03 / C_00 = w^-2 gives the Q = V diag(1, w) that undoes them.
    U = _local_basis(M4)
    for V in (U, U[:, ::-1]):
        A = kron(V, V)
        C = dagger(A) @ M @ A
        w = np.exp(0.5j * (np.angle(C[0, 0]) - np.angle(C[0, 3])))
        k = np.exp(1j * np.angle(C[0, 0]))
        spec = FamilySpec("F4", V @ np.diag([1.0, w]), k)
        yield spec, C, _HADAMARD_LIKE, "orthogonal pattern via fourth-power structure"


def _try_f3(M: np.ndarray, M2: np.ndarray) -> Iterator[_Candidate]:
    # An F3 member is M = Rb P = k (U (x) U) A (U (x) U)^dag with U unitary
    # and A the anti-diagonal pattern with |p| = |q| = 1: a Gram-diagonal Q
    # is U diag(s1, s2), and the diagonal part moves into the moduli of p, q.
    # A^2 = diag(pq, 1, 1, pq), so M^2 is diagonal in the U (x) U basis.
    U = _local_basis(M2)
    A = kron(U, U)
    C = dagger(A) @ M @ A
    k = (C[1, 2] + C[2, 1]) / 2
    if abs(k) < 1e-3:
        return
    p, q = C[0, 3] / k, C[3, 0] / k
    if abs(p) < 1e-8 or abs(q) < 1e-8:
        return
    # snap the moduli the family demands; the rebuild check has the last word
    spec = FamilySpec("F3", U, k / abs(k), {"p": p / abs(p), "q": q / abs(q)})
    yield spec, C, _ANTI_DIAGONAL, "anti-diagonal pattern, Gram-diagonal Q"


def _candidates(Rb: np.ndarray) -> Iterator[_Candidate]:
    """Every certificate the stages propose, in the order F5, F1, F4, F3.

    M = Rb P, M^2 and M^4 = M^2 M^2 are each formed once, when a stage
    first needs them.
    """
    yield from _try_f5(Rb)
    M = Rb @ _SWAP
    yield from _try_f1(M)
    M2 = M @ M
    yield from _try_f4(M, M2 @ M2)
    yield from _try_f3(M, M2)


def classify(
    Rb: np.ndarray,
    rng: np.random.Generator | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> ClassificationResult:
    """Assign a unitary braided solution to a family, with certificate.

    Stages run in the order F5, F1, F4, F3 and the first stage whose
    reconstruction lands within 1e-6 (_ACCEPT) of the input wins.  Each
    stage proposes its certificate together with C, the input in the
    certificate's product basis (for F5, Rb itself), where the rebuild X
    has fixed entry moduli: 1 on the diagonal for F5 and F1, 1 on the
    anti-diagonal for F3, 1/sqrt2 on the eight Hadamard-like entries for
    F4.  ||X - C||_F is the rebuild residual, and the floor
    || |C| - |X| ||_F never exceeds it, so a certificate whose floor exceeds
    2 * _ACCEPT is declined without calling family_member; the factor 2
    covers the rounding between the two.  Every accepted certificate still
    comes from the full rebuild.  Every stage reads
    its certificate off the structure of the input in closed form, with no
    search and no eigenvalue solver (F1, F4 and F3 take the local unitary U
    from the realignment of M, M^4 and M^2, M = R_b P), so the result is
    deterministic and ``rng`` is ignored (it is accepted for callers
    written against the earlier randomized search).  The families
    genuinely overlap, so the label is a canonical choice, not an exclusive
    one: scalars sit in several families, and every member of the
    anti-diagonal pattern with p q = 1 (all of F2, whose Q forces it, and
    the p q = 1 edge of F3) has eigenvalues {k, -k} with a product
    eigenbasis and therefore a valid diagonal-family certificate, which the
    F1 stage finds first.  No member is ever tagged F2.  Inputs that are not
    unitary or not solutions (core.solution_check) are rejected with
    NotUnitary / NotASolution.  ``tol`` governs both checks and the
    constraint checks on each certificate.
    """
    Rb = _as_gate(Rb, tol)
    resid, bound = solution_check(Rb, "braided", tol)
    if resid > bound:
        raise NotASolution(
            f"braided equation residual {resid:.3e} exceeds bound {bound:.3e}"
        )
    for candidate in _candidates(Rb):
        got = _accept(Rb, *candidate, tol)
        if got:
            return got
    return ClassificationResult(
        None, None, float("inf"), "no family certificate found"
    )
