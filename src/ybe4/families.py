"""The five families of unitary braided solutions and the elimination filter.

Every 4x4 unitary solution R_b of the braided equation factors as

    R_b = k (Q (x) Q) R (Q (x) Q)^-1 P

with |k| = 1, Q an invertible 2x2 matrix, P the swap, and R one of five
base patterns (algebraic-form solutions):

  F1  diag(1, p, q, r) with |p| = |q| = |r| = 1, Q constrained so that the
      Gram off-diagonal vanishes (c = -a conj(b)/conj(d))
  F2  the anti-diagonal pattern [[0,0,0,p],[0,0,1,0],[0,1,0,0],[q,0,0,0]]
      with Q of nonvanishing Gram off-diagonal; p and q are then forced by
      Q and satisfy p q = 1
  F3  the same anti-diagonal pattern with Gram-diagonal Q; the moduli
      |p| = |d|^2/|a|^2 and |q| = |a|^2/|d|^2 are forced but both phases
      stay free
  F4  the Hadamard-like orthogonal matrix (1/sqrt2)[[1,0,0,1],[0,1,1,0],
      [0,1,-1,0],[-1,0,0,1]] with Gram-diagonal Q of equal corner moduli
      |a| = |d|
  F5  the swap pattern itself, any invertible Q; the member collapses to
      k times the identity

Whether (Q (x) Q) R (Q (x) Q)^-1 stays unitary is controlled entirely by
the Gram matrix G = Q^dag Q: with H = G (x) G the member is unitary exactly
when D = H R^-1 - R^dag H vanishes.  The helpers here expose the Gram data,
the D matrix, the constrained sampling of Q for each family, and the
equal-modulus eigenvalue filter that eliminates inventory candidates whose
spectrum cannot be flattened to a single circle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConstraintViolation, SingularMatrix
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_square,
    check_tolerance,
    dagger,
    eigenvalues,
    inverse,
    kron,
)
from .core import swap_matrix

__all__ = [
    "FAMILY_NAMES",
    "FamilySpec",
    "GramData",
    "CandidateRep",
    "family_representative",
    "family_member",
    "validate_spec",
    "random_family_spec",
    "gram",
    "d_matrix",
    "f2_params",
    "eigenvalue_filter",
    "hietarinta_candidates",
    "case_matrix",
    "run_elimination",
]

FAMILY_NAMES = ("F1", "F2", "F3", "F4", "F5")

_SWAP = swap_matrix(2)  # read-only; family_representative hands out fresh copies


@dataclass(frozen=True, eq=False)
class FamilySpec:
    """A point in one of the five families: base pattern parameters, Q, and phase k."""

    family: str
    Q: np.ndarray
    k: complex = 1.0 + 0.0j
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "Q", np.asarray(self.Q, dtype=complex))
        if self.Q.shape != (2, 2):
            raise ValueError(f"Q must be 2x2, got {self.Q.shape}")


@dataclass(frozen=True, eq=False)
class GramData:
    """Gram data of Q: G = Q^dag Q with entries x = |a|^2+|c|^2,
    y = |b|^2+|d|^2, z = a conj(b) + c conj(d), and H = G (x) G."""

    x: float
    y: float
    z: complex
    G: np.ndarray
    H: np.ndarray


def gram(Q: np.ndarray) -> GramData:
    G, x, y, z = _gram_entries(np.asarray(Q, dtype=complex))
    return GramData(x=x, y=y, z=z, G=G, H=kron(G, G))


def _gram_entries(Q: np.ndarray) -> tuple[np.ndarray, float, float, complex]:
    """G = Q^dag Q and its entries x, y, z, as in gram but without H."""
    G = dagger(Q) @ Q
    return G, G[0, 0].real, G[1, 1].real, G[1, 0]


def d_matrix(R: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """D = H R^-1 - R^dag H; zero exactly when (Q(x)Q) R (Q(x)Q)^-1 is unitary."""
    H = gram(Q).H
    return H @ inverse(np.asarray(R, dtype=complex)) - dagger(R) @ H


def _antidiag_pattern(p: complex, q: complex) -> np.ndarray:
    return np.array(
        [[0, 0, 0, p], [0, 0, 1, 0], [0, 1, 0, 0], [q, 0, 0, 0]], dtype=complex
    )


def _hadamard_like() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [-1, 0, 0, 1]], dtype=complex
    ) / np.sqrt(2)


def f2_params(Q: np.ndarray) -> tuple[complex, complex]:
    """The (p, q) forced on the F2 anti-diagonal pattern by Q; p q = 1 exactly."""
    _, x, y, z = _gram_entries(np.asarray(Q, dtype=complex))
    if abs(z) <= DEFAULT_TOL.singular_tol * (x + y):
        raise ConstraintViolation("F2 needs a Q with nonvanishing Gram off-diagonal")
    p = y * np.conj(z) / (x * z)
    return p, 1.0 / p


def family_representative(spec: FamilySpec) -> np.ndarray:
    """The base algebraic-form pattern R for this spec."""
    fam, pa = spec.family, spec.params
    if fam == "F1":
        return np.diag([1.0, pa["p"], pa["q"], pa["r"]]).astype(complex)
    if fam == "F2":
        p, q = f2_params(spec.Q)
        return _antidiag_pattern(p, q)
    if fam == "F3":
        return _antidiag_pattern(pa["p"], pa["q"])
    if fam == "F4":
        return _hadamard_like()
    return swap_matrix(2)


def validate_spec(spec: FamilySpec, tol: Tolerance = DEFAULT_TOL) -> list[str]:
    """Constraint violations for this spec; empty when it is a valid member.

    Every test on Q is relative to its own scale (the Gram entries to their
    trace, the corners to max|Q|), so Q and c*Q get the same verdict, as
    they give the same member.
    """
    return _check_spec(spec, tol)[0]


def _misses(value: float, want: float, bound: float) -> bool:
    """|value - want| > bound, written so that a NaN value misses too."""
    return not abs(value - want) <= bound


def _check_spec(
    spec: FamilySpec, tol: Tolerance
) -> tuple[list[str], np.ndarray | None]:
    """(validate_spec's violations, Q^-1), with Q^-1 None when Q is singular."""
    out: list[str] = []
    Q = spec.Q
    try:
        Qinv = inverse(Q, tol)
    except SingularMatrix:
        out.append("Q is singular")
        return out, None
    if _misses(abs(spec.k), 1.0, tol.eq_tol):
        out.append(f"|k| = {abs(spec.k):.6g} is not 1")
    _, x, y, z = _gram_entries(Q)
    scale = x + y
    qmax = np.abs(Q).max()
    z_small = abs(z) <= tol.eq_tol * scale
    fam, pa = spec.family, spec.params
    if fam == "F1":
        for name in ("p", "q", "r"):
            if name not in pa:
                out.append(f"F1 needs parameter {name}")
            elif _misses(abs(pa[name]), 1.0, tol.eq_tol):
                out.append(f"|{name}| = {abs(pa[name]):.6g} is not 1")
        if not z_small:
            out.append(f"F1 needs Gram off-diagonal zero, got |z| = {abs(z):.3g}")
    elif fam == "F2":
        if abs(z) <= tol.singular_tol * scale:
            out.append("F2 needs nonvanishing Gram off-diagonal")
    elif fam == "F3":
        if not z_small:
            out.append(f"F3 needs Gram off-diagonal zero, got |z| = {abs(z):.3g}")
        a, d = Q[0, 0], Q[1, 1]
        if min(abs(a), abs(d)) <= tol.singular_tol * qmax:
            out.append("F3 needs nonvanishing corner entries a, d")
        else:
            want_p = abs(d) ** 2 / abs(a) ** 2
            for name, want in (("p", want_p), ("q", 1.0 / want_p)):
                if name not in pa:
                    out.append(f"F3 needs parameter {name}")
                elif _misses(abs(pa[name]), want, tol.eq_tol * max(1.0, want)):
                    out.append(
                        f"|{name}| = {abs(pa[name]):.6g} differs from forced modulus "
                        f"{want:.6g}"
                    )
    elif fam == "F4":
        if not z_small:
            out.append(f"F4 needs Gram off-diagonal zero, got |z| = {abs(z):.3g}")
        if _misses(abs(Q[0, 0]), abs(Q[1, 1]), tol.eq_tol * qmax):
            out.append(
                f"F4 needs |a| = |d|, got {abs(Q[0, 0]):.6g} vs {abs(Q[1, 1]):.6g}"
            )
    return out, Qinv


def family_member(
    spec: FamilySpec, form: str = "braided", tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Construct k (Q(x)Q) R (Q(x)Q)^-1 P (braided) or the same without P (algebraic).

    Raises ConstraintViolation when the spec breaks its family's constraints,
    which is exactly when the result would fail to be unitary.
    """
    if form not in ("braided", "algebraic"):
        raise ValueError(f"unknown form {form!r}")
    violations, Qinv = _check_spec(spec, tol)
    if violations:
        raise ConstraintViolation(violations)
    R = family_representative(spec)
    M = spec.k * kron(spec.Q, spec.Q) @ R @ kron(Qinv, Qinv)
    if form == "braided":
        M = M @ _SWAP
    return M


def _crand(rng: np.random.Generator):
    return complex(rng.normal() + 1j * rng.normal()) / np.sqrt(2)


def _unit(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def _cond2(Q: np.ndarray) -> float:
    """2-norm condition number; callers test |det Q| first, so s[-1] > 0."""
    s = np.linalg.svd(Q, compute_uv=False)
    return float(s[0] / s[-1])


def _sample_q_gram_diagonal(rng: np.random.Generator) -> np.ndarray:
    """Random invertible Q with zero Gram off-diagonal and moderate conditioning."""
    while True:
        a, b, d = _crand(rng), _crand(rng), _crand(rng)
        if abs(a) < 0.3 or abs(d) < 0.3:
            continue
        c = -a * np.conj(b) / np.conj(d)
        Q = np.array([[a, b], [c, d]], dtype=complex)
        if abs(a * d - b * c) > 1e-3 and _cond2(Q) < 20:
            return Q


def _sample_q_invertible(rng: np.random.Generator) -> np.ndarray:
    """Random Q with |det Q| > 1e-2 and condition number below 20."""
    while True:
        Q = np.array(
            [[_crand(rng), _crand(rng)], [_crand(rng), _crand(rng)]], dtype=complex
        )
        det = Q[0, 0] * Q[1, 1] - Q[0, 1] * Q[1, 0]
        if abs(det) > 1e-2 and _cond2(Q) < 20:
            return Q


def _sample_q_free(rng: np.random.Generator) -> np.ndarray:
    """Random invertible Q with clearly nonzero Gram off-diagonal."""
    while True:
        Q = _sample_q_invertible(rng)
        if abs(gram(Q).z) > 0.05:
            return Q


def _sample_q_equal_corners(rng: np.random.Generator) -> np.ndarray:
    """Random Q with zero Gram off-diagonal and |a| = |d|."""
    rho = rng.uniform(0.5, 1.5)
    sigma = rng.uniform(0.5, 1.5)
    a = rho * _unit(rng)
    d = rho * _unit(rng)
    b = sigma * _unit(rng)
    c = -a * np.conj(b) / np.conj(d)
    return np.array([[a, b], [c, d]], dtype=complex)


def random_family_spec(family: str, rng: np.random.Generator) -> FamilySpec:
    """Draw a random valid spec of the given family."""
    k = _unit(rng)
    if family == "F1":
        Q = _sample_q_gram_diagonal(rng)
        return FamilySpec(
            "F1", Q, k, {"p": _unit(rng), "q": _unit(rng), "r": _unit(rng)}
        )
    if family == "F2":
        return FamilySpec("F2", _sample_q_free(rng), k)
    if family == "F3":
        Q = _sample_q_gram_diagonal(rng)
        ratio = abs(Q[1, 1]) ** 2 / abs(Q[0, 0]) ** 2
        return FamilySpec(
            "F3", Q, k, {"p": ratio * _unit(rng), "q": _unit(rng) / ratio}
        )
    if family == "F4":
        return FamilySpec("F4", _sample_q_equal_corners(rng), k)
    if family == "F5":
        return FamilySpec("F5", _sample_q_invertible(rng), k)
    raise ValueError(f"unknown family {family!r}")


def eigenvalue_filter(M: np.ndarray, rel_tol: float = 1e-6) -> bool:
    """Whether every eigenvalue of M has the same modulus, within rel_tol.

    A solution that can be rescaled to unitary must have its spectrum on one
    circle, so failing this filter rules a candidate out.  Raises
    SingularMatrix when the moduli span so many orders of magnitude that the
    ratio test is meaningless.
    """
    passes, singular = _filter_verdicts(as_square(M), rel_tol)
    if singular:
        raise SingularMatrix("eigenvalue moduli ratio below 1e-10")
    return bool(passes)


def _filter_verdicts(M: np.ndarray, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """eigenvalue_filter for each matrix of a stack: (passes, singular) per matrix."""
    mods = np.abs(eigenvalues(M))
    top, low = mods.max(axis=-1), mods.min(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = (top == 0) | (low / top < 1e-10)
        passes = (top - low) / top <= rel_tol
    return passes & ~singular, singular


@dataclass(frozen=True, eq=False)
class CandidateRep:
    """A candidate invertible solution from the classical 4x4 inventory.

    sampling maps each parameter to 'unit' (a random phase) or 'generic'
    (a random complex gaussian); build produces the matrix.
    """

    name: str
    sampling: dict[str, str]
    build: Callable[..., np.ndarray]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        kwargs = {
            name: (_unit(rng) if kind == "unit" else _crand(rng))
            for name, kind in self.sampling.items()
        }
        return self.build(**kwargs)


def _r01() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 1], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]], dtype=complex
    )


def _r02() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [-1, 0, 0, 1]], dtype=complex
    )


def _r11(p, q) -> np.ndarray:
    s, d = p * p + q * q, p * p - q * q
    return np.array(
        [
            [p * p + 2 * p * q - q * q, 0, 0, d],
            [0, s, d, 0],
            [0, d, s, 0],
            [d, 0, 0, p * p - 2 * p * q - q * q],
        ],
        dtype=complex,
    )


def _r12(p, q, k) -> np.ndarray:
    return np.array(
        [[p, 0, 0, k], [0, p, p - q, 0], [0, 0, q, 0], [0, 0, 0, -q]], dtype=complex
    )


def _r13(k, p, q) -> np.ndarray:
    return np.array(
        [
            [k * k, k * p, -k * p, p * q],
            [0, k * k, 0, k * q],
            [0, 0, k * k, -k * q],
            [0, 0, 0, k * k],
        ],
        dtype=complex,
    )


def _r14(p, q, k) -> np.ndarray:
    return np.array(
        [[0, 0, 0, p], [0, 0, k, 0], [0, k, 0, 0], [q, 0, 0, 0]], dtype=complex
    )


def _r21(k, p, q) -> np.ndarray:
    return np.array(
        [
            [k * k, 0, 0, 0],
            [0, k * p, k * k - p * q, 0],
            [0, 0, k * q, 0],
            [0, 0, 0, k * k],
        ],
        dtype=complex,
    )


def _r22(k, p, q) -> np.ndarray:
    M = _r21(k, p, q)
    M[3, 3] = -p * q
    return M


def _r23(k, p, q, s) -> np.ndarray:
    return np.array(
        [[k, p, q, s], [0, k, 0, q], [0, 0, k, p], [0, 0, 0, k]], dtype=complex
    )


def _r31(k, p, q, s) -> np.ndarray:
    return np.diag([k, p, q, s]).astype(complex)


def hietarinta_candidates() -> tuple[CandidateRep, ...]:
    """The eleven-candidate inventory of invertible 4x4 algebraic solutions."""
    return (
        CandidateRep("R01", {}, _r01),
        CandidateRep("R02", {}, _r02),
        CandidateRep("R03", {}, lambda: swap_matrix(2)),
        CandidateRep("R11", {"p": "generic", "q": "generic"}, _r11),
        CandidateRep("R12", {"p": "unit", "q": "unit", "k": "generic"}, _r12),
        CandidateRep("R13", {"k": "generic", "p": "generic", "q": "generic"}, _r13),
        CandidateRep("R14", {"p": "unit", "q": "unit", "k": "unit"}, _r14),
        CandidateRep("R21", {"k": "unit", "p": "unit", "q": "unit"}, _r21),
        CandidateRep("R22", {"k": "unit", "p": "unit", "q": "unit"}, _r22),
        CandidateRep(
            "R23", {"k": "unit", "p": "generic", "q": "generic", "s": "generic"}, _r23
        ),
        CandidateRep("R31", {"k": "unit", "p": "unit", "q": "unit", "s": "unit"}, _r31),
    )


_CASE_BUILDERS: dict[str, Callable[..., np.ndarray]] = {
    "R12": lambda p, q, k, s: _r12(1.0, q, k),
    "R13": lambda p, q, k, s: _r13(1.0, p, q),
    "R21": lambda p, q, k, s: _r21(1.0, p, q),
    "R22": lambda p, q, k, s: _r22(1.0, p, q),
    "R23": lambda p, q, k, s: _r23(1.0, p, q, s),
    "R31": lambda p, q, k, s: _r31(1.0, p, q, k),
}


def case_matrix(name: str, **params: complex) -> np.ndarray:
    """Scaled one-parameter-removed forms used in the per-candidate case analysis.

    Each candidate that survives the eigenvalue filter is normalized by its
    leading entry before the Gram condition D = 0 is examined entry by entry;
    these are those normalized forms: the inventory builder with its leading
    parameter set to 1, every other parameter defaulting to 1.
    """
    if name not in _CASE_BUILDERS:
        raise ValueError(f"no scaled case form for {name!r}")
    return _CASE_BUILDERS[name](
        *(params.get(key, 1.0) for key in ("p", "q", "k", "s"))
    )


# Most draws of one candidate checked in a single stacked eigenvalues call;
# bounds the memory of a run with many samples.
_FILTER_STACK = 1024


def run_elimination(
    samples: int = 1000, seed: int = 0, rel_tol: float = 1e-6
) -> dict[str, dict]:
    """Push random draws of every inventory candidate through the filter.

    Parameter-free candidates are evaluated once (they never change);
    parametric ones get ``samples`` independent draws, redrawing any whose
    spectrum degenerates.  Returns per-candidate attempt/pass counts and the
    list of names whose pass rate falls below 1%.  Every candidate's
    spectrum is known in closed form, and only R11 can fail: it passes only
    on the measure-zero set |p| = |q|, so its random draws all fail.

    Draws are taken one at a time from one generator, in the same order as
    a per-draw loop would take them, and checked in stacks of at most
    _FILTER_STACK.  A redraw is the next draw of the stream, so a stack
    never holds more draws than are still needed, and dropping its
    degenerate rows leaves exactly the verdicts, counts and generator state
    of checking one draw at a time.
    """
    check_tolerance("rel_tol", rel_tol)
    rng = np.random.default_rng(seed)
    report: dict[str, dict] = {}
    for cand in hietarinta_candidates():
        attempts = samples if cand.sampling else 1
        passes = 0
        redraws = 0
        needed = attempts
        while needed:
            stack = [cand.sample(rng) for _ in range(min(needed, _FILTER_STACK))]
            ok, singular = _filter_verdicts(np.array(stack), rel_tol)
            passes += int(ok.sum())
            redraws += int(singular.sum())
            needed -= int(ok.size - singular.sum())
        report[cand.name] = {
            "attempts": attempts,
            "passes": passes,
            "pass_rate": passes / attempts,
            "redraws": redraws,
        }
    report["eliminated"] = [
        name for name in sorted(report) if report[name]["pass_rate"] < 0.01
    ]
    return report
