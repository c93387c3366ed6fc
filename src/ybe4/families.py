"""The five families of unitary braided solutions and the elimination filter.

Every 4x4 unitary solution R_b of the braided equation factors as

    R_b = k (Q (x) Q) R (Q (x) Q)^-1 P

with |k| = 1, Q an invertible 2x2 matrix, P the swap, and R one of five
base patterns (algebraic-form solutions), each a point of Hietarinta's
inventory of invertible 4x4 solutions (Phys. Lett. A 165, 245, 1992) built
by that candidate's builder below:

  F1  R31 at leading entry 1, diag(1, p, q, r) with |p| = |q| = |r| = 1;
      Q with vanishing Gram off-diagonal (c = -a conj(b)/conj(d))
  F2  R14 at inner entries 1, anti-diagonal with corners p, q; Q with
      nonvanishing Gram off-diagonal, which forces p and q, and p q = 1
  F3  R14 again with Gram-diagonal Q; the moduli |p| = |d|^2/|a|^2 and
      |q| = |a|^2/|d|^2 are forced but both phases stay free
  F4  R02 / sqrt2, a Hadamard-like orthogonal matrix; Gram-diagonal Q of
      equal corner moduli |a| = |d|
  F5  R03, the swap itself; any invertible Q, and the braided member
      collapses to k times the identity

Whether (Q (x) Q) R (Q (x) Q)^-1 stays unitary is controlled entirely by
the Gram matrix G = Q^dag Q: with H = G (x) G the member is unitary exactly
when D = H R^-1 - R^dag H vanishes.  The helpers here expose the Gram data,
the D matrix, the constrained sampling of Q for each family, the scaled
case forms of the inventory candidates, and the equal-modulus eigenvalue
filter that eliminates inventory candidates whose spectrum cannot be
flattened to a single circle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from typing import Callable

import numpy as np

from .errors import ConstraintViolation, DimensionError, NonConvergence, SingularMatrix
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _numeric,
    as_square,
    check_instance,
    check_number,
    check_tolerance,
    dagger,
    eigenvalues,
    integer_at_least,
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

# each family's base-pattern parameters, in the order a missing one is reported
_FAMILY_PARAMS = {"F1": ("p", "q", "r"), "F2": (), "F3": ("p", "q"), "F4": (), "F5": ()}
FAMILY_NAMES = tuple(_FAMILY_PARAMS)

_SWAP = swap_matrix(2)  # read-only; family_representative hands out fresh copies

# np.sqrt(2) once, with the value and type the per-call np.sqrt(2) gave
_SQRT2 = np.sqrt(2)


@dataclass(frozen=True, eq=False)
class FamilySpec:
    """A point in one of the five families: base pattern parameters, Q, and phase k.

    k and the values of params must be numbers (numpy scalars are, a bool
    is not), stored as given; validate_spec checks the names in params.
    """

    family: str
    Q: np.ndarray
    k: complex = 1.0 + 0.0j
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise ConstraintViolation(f"unknown family {self.family!r}")
        object.__setattr__(self, "Q", _numeric(self.Q))
        if self.Q.shape != (2, 2):
            raise DimensionError(f"Q must be 2x2, got {self.Q.shape}")
        check_number("k", self.k)
        check_instance("params", self.params, dict)
        for name, value in self.params.items():
            check_number(name, value)


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
    """The Gram data of Q.

    Raises DimensionError unless Q is 2x2 and NonFiniteValue unless it is
    finite.
    """
    G, x, y, z = _gram_entries(_as_q(Q))
    return GramData(x=x, y=y, z=z, G=G, H=kron(G, G))


def _as_q(Q) -> np.ndarray:
    """Q as finite 2x2 complex128; DimensionError or NonFiniteValue otherwise."""
    Q = as_square(Q)
    if Q.shape != (2, 2):
        raise DimensionError(f"Q must be 2x2, got {Q.shape}")
    return Q


def _gram_entries(Q: np.ndarray) -> tuple[np.ndarray, float, float, complex]:
    """G = Q^dag Q and its entries x, y, z, as in gram but without H."""
    G = dagger(Q) @ Q
    return G, G[0, 0].real, G[1, 1].real, G[1, 0]


def d_matrix(R: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """D = H R^-1 - R^dag H; zero exactly when (Q(x)Q) R (Q(x)Q)^-1 is unitary.

    Q is checked as in gram.
    """
    H = gram(Q).H
    return H @ inverse(R) - dagger(R) @ H


def f2_params(Q: np.ndarray) -> tuple[complex, complex]:
    """The (p, q) forced on the F2 anti-diagonal pattern by Q; p q = 1 exactly.

    Q is checked as in gram.
    """
    return _f2_params(_as_q(Q), DEFAULT_TOL)


def _f2_params(Q: np.ndarray, tol: Tolerance) -> tuple[complex, complex]:
    _, x, y, z = _gram_entries(np.asarray(Q, dtype=complex))
    if abs(z) <= tol.singular_tol * (x + y):
        raise ConstraintViolation("F2 needs a Q with nonvanishing Gram off-diagonal")
    p = y * np.conj(z) / (x * z)
    return p, 1.0 / p


def family_representative(spec: FamilySpec) -> np.ndarray:
    """The base algebraic-form pattern R for this spec, from its inventory builder.

    Raises ConstraintViolation when spec is not a FamilySpec or its params
    do not hold exactly its family's parameters.
    """
    violations = _param_violations(_as_spec(spec))
    if violations:
        raise ConstraintViolation(violations)
    return _representative(spec, DEFAULT_TOL)


def _representative(spec: FamilySpec, tol: Tolerance) -> np.ndarray:
    """family_representative, with F2's Gram off-diagonal tested against tol."""
    fam, pa = spec.family, spec.params
    if fam == "F1":
        return _PATTERNS["R31"].build(1.0, pa["p"], pa["q"], pa["r"])
    if fam == "F2":
        return _PATTERNS["R14"].build(*_f2_params(spec.Q, tol), 1.0)
    if fam == "F3":
        return _PATTERNS["R14"].build(pa["p"], pa["q"], 1.0)
    if fam == "F4":
        return _PATTERNS["R02"].build() / _SQRT2
    return _PATTERNS["R03"].build()


def validate_spec(spec: FamilySpec, tol: Tolerance = DEFAULT_TOL) -> list[str]:
    """Constraint violations for this spec; empty when it is a valid member.

    Every test on Q is relative to its own scale (the Gram entries to their
    trace, the corners to max|Q|), so Q and c*Q get the same verdict, as
    they give the same member.  Raises ConstraintViolation unless spec is
    a FamilySpec and tol a Tolerance.
    """
    check_instance("tol", tol, Tolerance)
    return _check_spec(spec, tol)[0]


def _misses(value: float, want: float, bound: float) -> bool:
    """|value - want| > bound, written so that a NaN value misses too."""
    return not abs(value - want) <= bound


def _as_spec(spec) -> FamilySpec:
    """spec itself; ConstraintViolation unless it is a FamilySpec."""
    if not isinstance(spec, FamilySpec):
        raise ConstraintViolation(f"expected a FamilySpec, got {type(spec).__name__}")
    return spec


def _param_violations(spec: FamilySpec) -> list[str]:
    """Missing parameters in _FAMILY_PARAMS order, then unknown names sorted."""
    fam, names = spec.family, _FAMILY_PARAMS[spec.family]
    missing = [f"{fam} needs parameter {n}" for n in names if n not in spec.params]
    unknown = sorted(spec.params.keys() - names, key=str)
    return missing + [f"{fam} takes no parameter {n!r}" for n in unknown]


def _check_spec(
    spec: FamilySpec, tol: Tolerance
) -> tuple[list[str], np.ndarray | None]:
    """(validate_spec's violations, Q^-1), with Q^-1 None when Q is singular;
    ConstraintViolation unless spec is a FamilySpec."""
    out = _param_violations(_as_spec(spec))
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
            if name in pa and _misses(abs(pa[name]), 1.0, tol.eq_tol):
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
                bound = tol.eq_tol * max(1.0, want)
                if name in pa and _misses(abs(pa[name]), want, bound):
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

    Raises ConstraintViolation when the spec breaks its family's constraints
    (each validate_spec violation but a parameter name makes the result
    non-unitary), or is not a FamilySpec, and when tol is not a Tolerance.
    """
    if form not in ("braided", "algebraic"):
        raise ConstraintViolation(f"unknown form {form!r}")
    check_instance("tol", tol, Tolerance)
    violations, Qinv = _check_spec(spec, tol)
    if violations:
        raise ConstraintViolation(violations)
    R = _representative(spec, tol)
    M = spec.k * kron(spec.Q, spec.Q) @ R @ kron(Qinv, Qinv)
    if form == "braided":
        M = M @ _SWAP
    return M


def _crand(rng: np.random.Generator):
    return complex(rng.normal() + 1j * rng.normal()) / _SQRT2


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
        if abs(_gram_entries(Q)[3]) > 0.05:
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
    """Draw a random valid spec of the given family.

    Raises ConstraintViolation for an unknown family or an rng that is not
    a numpy Generator.
    """
    k = _unit(_generator(rng))
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
    raise ConstraintViolation(f"unknown family {family!r}")


def eigenvalue_filter(M: np.ndarray, rel_tol: float = 1e-6) -> bool:
    """Whether every eigenvalue of M has the same modulus, within rel_tol.

    A solution that can be rescaled to unitary must have its spectrum on one
    circle, so failing this filter rules a candidate out.  Raises
    SingularMatrix when the moduli span so many orders of magnitude that the
    ratio test is meaningless, and ConstraintViolation unless rel_tol is
    finite and positive.
    """
    check_tolerance("rel_tol", rel_tol)
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

    entries gives the matrix's 16 entries as a row-major list; sampling
    maps each of its parameters, in its order, to 'unit' (a random phase,
    as _unit draws it) or 'generic' (a random complex gaussian, as _crand
    draws it).  build(*args, **params) is the 4x4 complex matrix of those
    entries.  samples(rng, n) draws the parameters of n draws as arrays
    and stacks their entry lists into one (n, 4, 4) array; its bytes and
    the generator's final state are bit for bit those of n rounds of one
    _unit or _crand call per parameter, each built alone.  sample is its
    one-draw case.
    """

    name: str
    sampling: dict[str, str]
    entries: Callable[..., list]

    def build(self, *args, **params) -> np.ndarray:
        return np.array(self.entries(*args, **params), dtype=complex).reshape(4, 4)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.samples(rng, 1)[0]

    def samples(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n successive draws as one (n, 4, 4) array, each row's entries
        computed from Python complex parameters.

        Raises ConstraintViolation unless rng is a numpy Generator and n an
        integer >= 0.
        """
        n = integer_at_least("n", n, 0)
        rows = _draw_params(tuple(self.sampling.values()), n, _generator(rng))
        entries = self.entries  # sampling lists its parameters in order
        stack = np.array([entries(*row) for row in rows], dtype=complex)
        return stack.reshape(n, 4, 4)


def _generator(rng) -> np.random.Generator:
    """rng itself; ConstraintViolation unless it is a numpy Generator."""
    check_instance("rng", rng, np.random.Generator, "a numpy.random.Generator")
    return rng


@lru_cache
def _draw_plan(kinds: tuple[str, ...], n: int) -> tuple:
    """(unit columns, generic columns, whether the first run is unit, run
    sizes) of _draw_params: the n x len(kinds) kinds, read row by row, split
    into maximal runs of one kind, which alternate between the two kinds.

    Cached (128 plans at most) because the same (kinds, n) comes back
    whenever run_elimination is called again with the same sample count:
    each first pass draws every candidate's full count, and redraw passes
    draw small counts.  A single large run, as in one ``ybe4 filter``
    command, mostly misses, and costs one plan either way."""
    unit = tuple(i for i, kind in enumerate(kinds) if kind == "unit")
    generic = tuple(i for i, kind in enumerate(kinds) if kind != "unit")
    flags = [kind == "unit" for kind in kinds] * n
    sizes = tuple(len(list(run)) for _, run in groupby(flags))
    return unit, generic, bool(flags) and flags[0], sizes


def _draw_params(
    kinds: tuple[str, ...], n: int, rng: np.random.Generator
) -> list[list[complex]]:
    """n rows of parameters of the given kinds, bit for bit those of n rounds
    of one _unit or _crand call per kind, and leaving rng in the same state.

    The n x len(kinds) kinds, read row by row, split into maximal runs of
    one kind, and each run is one generator call: a generator fills an
    array with the values its scalar calls return one at a time.  The
    phases and the gaussians are then formed once each.
    """
    unit, generic, is_unit, sizes = _draw_plan(kinds, n)
    uniforms, normals = [], []
    for size in sizes:
        if is_unit:
            uniforms.append(rng.random(size))  # rng.uniform() is 0 + 1 * this
        else:
            normals.append(rng.standard_normal((size, 2)))  # (real, imag) pairs
        is_unit = not is_unit
    values = np.empty((n, len(kinds)), dtype=complex)
    if uniforms:
        values[:, unit] = np.exp(2j * np.pi * np.concatenate(uniforms)).reshape(n, -1)
    if normals:
        # each part divided by sqrt 2 on its own, as complex(x + 1j*y) / _SQRT2
        # does; a complex multiply could round differently
        pairs = np.concatenate(normals) / _SQRT2
        values[:, generic] = pairs.view(complex).reshape(n, -1)
    return values.tolist()


def _r01() -> list:
    return [1, 0, 0, 1, 0, -1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1]


def _r02() -> list:
    return [1, 0, 0, 1, 0, 1, 1, 0, 0, 1, -1, 0, -1, 0, 0, 1]


def _r03() -> list:
    return _SWAP.ravel().tolist()


def _r11(p, q) -> list:
    s, d = p * p + q * q, p * p - q * q
    return [
        p * p + 2 * p * q - q * q, 0, 0, d,
        0, s, d, 0,
        0, d, s, 0,
        d, 0, 0, p * p - 2 * p * q - q * q,
    ]  # fmt: skip


def _r12(p, q, k) -> list:
    return [p, 0, 0, k, 0, p, p - q, 0, 0, 0, q, 0, 0, 0, 0, -q]


def _r13(k, p, q) -> list:
    return [
        k * k, k * p, -k * p, p * q,
        0, k * k, 0, k * q,
        0, 0, k * k, -k * q,
        0, 0, 0, k * k,
    ]  # fmt: skip


def _r14(p, q, k) -> list:
    return [0, 0, 0, p, 0, 0, k, 0, 0, k, 0, 0, q, 0, 0, 0]


def _r21(k, p, q) -> list:
    return [
        k * k, 0, 0, 0,
        0, k * p, k * k - p * q, 0,
        0, 0, k * q, 0,
        0, 0, 0, k * k,
    ]  # fmt: skip


def _r22(k, p, q) -> list:
    entries = _r21(k, p, q)
    entries[15] = -p * q
    return entries


def _r23(k, p, q, s) -> list:
    return [k, p, q, s, 0, k, 0, q, 0, 0, k, p, 0, 0, 0, k]


def _r31(k, p, q, s) -> list:
    return [k, 0, 0, 0, 0, p, 0, 0, 0, 0, q, 0, 0, 0, 0, s]


def hietarinta_candidates() -> tuple[CandidateRep, ...]:
    """The eleven-candidate inventory of invertible 4x4 algebraic solutions."""
    return (
        CandidateRep("R01", {}, _r01),
        CandidateRep("R02", {}, _r02),
        CandidateRep("R03", {}, _r03),
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


# the inventory by name, for _representative and case_matrix
_PATTERNS = {cand.name: cand for cand in hietarinta_candidates()}

_CASE_FORMS = ("R12", "R13", "R21", "R22", "R23", "R31")


def case_matrix(name: str, **params: complex) -> np.ndarray:
    """Scaled one-parameter-removed forms used in the per-candidate case analysis.

    Each candidate that survives the eigenvalue filter is normalized by its
    leading entry before the Gram condition D = 0 is examined entry by entry.
    The form of R12, R13, R21, R22, R23 or R31 is that candidate's own
    builder with its leading parameter set to 1; the keywords are the
    builder's other parameters, each defaulting to 1.  Another name or
    keyword raises ConstraintViolation.
    """
    if name not in _CASE_FORMS:
        raise ConstraintViolation(f"no scaled case form for {name!r}")
    cand = _PATTERNS[name]
    lead, *rest = cand.sampling  # the builder's parameters, in order
    unknown = sorted(set(params) - set(rest))
    if unknown:
        raise ConstraintViolation(
            f"case form {name} takes only {', '.join(rest)}, got {', '.join(unknown)}"
        )
    return cand.build(**{lead: 1.0}, **{key: params.get(key, 1.0) for key in rest})


# Most draws checked in one stacked eigenvalues call; bounds the memory of a
# run with many samples.  A run of n draws with no redraw makes
# ceil(n / _FILTER_STACK) calls, and the draws do not depend on it.
_FILTER_STACK = 1024


def run_elimination(
    samples: int = 1000, seed: int = 0, rel_tol: float = 1e-6
) -> dict[str, dict]:
    """Push random draws of every inventory candidate through the filter.

    Parameter-free candidates are evaluated once (they never change);
    parametric ones get ``samples`` (an integer >= 1) independent draws,
    redrawing any whose spectrum degenerates.  ``seed`` (an integer >= 0)
    seeds the one generator.  Returns per-candidate attempt/pass counts and
    the list of names whose pass rate falls below 1%.  Every candidate's
    spectrum is known in closed form, and only R11 can fail: it passes only
    on the measure-zero set |p| = |q|, so its random draws all fail.

    The pending draws form a first-in-first-out queue of runs (candidate,
    draws), each candidate's in inventory order, and a degenerate draw
    queues one redraw at the back.  Each pass takes up to _FILTER_STACK
    draws from the front and checks them with one stacked eigenvalues
    call.  A run's parameters are drawn as arrays and its entry lists
    stacked as one array (CandidateRep.samples), and the pass concatenates
    its runs; the values, the stack bytes and the generator state are
    those of drawing one parameter at a time and building each matrix
    alone, so the draws and counts are those of taking the queue one draw
    at a time.  ``rel_tol`` must be a finite real number > 0.  A
    NonConvergence names the candidate and the draw, and carries as
    ``index`` the draw's position in that candidate's stream (from 0,
    redraws included).
    """
    check_tolerance("rel_tol", rel_tol)
    count = integer_at_least("samples", samples, 1)
    rng = np.random.default_rng(integer_at_least("seed", seed, 0))
    inventory = hietarinta_candidates()
    attempts = [count if cand.sampling else 1 for cand in inventory]
    passes = [0] * len(inventory)
    redraws = [0] * len(inventory)
    drawn = [0] * len(inventory)
    queue = deque(enumerate(attempts))  # runs of (candidate, draws)
    while queue:
        rows: list[int] = []
        runs: list[np.ndarray] = []
        while queue and len(rows) < _FILTER_STACK:
            i, left = queue.popleft()
            take = min(left, _FILTER_STACK - len(rows))
            if take < left:
                queue.appendleft((i, left - take))
            rows += [i] * take
            runs.append(inventory[i].samples(rng, take))
        stack = np.concatenate(runs)
        try:
            ok, singular = _filter_verdicts(stack, rel_tol)
        except NonConvergence as exc:
            i = rows[exc.index]
            n = drawn[i] + rows[: exc.index].count(i)
            raise NonConvergence(
                f"{inventory[i].name} draw {n}: root residual "
                f"{exc.residual:.3e} exceeds {exc.bound:.3e}",
                root=exc.root,
                residual=exc.residual,
                bound=exc.bound,
                index=n,
            ) from exc
        for i, good, bad in zip(rows, ok.tolist(), singular.tolist()):
            drawn[i] += 1
            passes[i] += good
            if bad:
                redraws[i] += 1
                queue.append((i, 1))
    report: dict[str, dict] = {
        cand.name: {
            "attempts": attempts[i],
            "passes": passes[i],
            "pass_rate": passes[i] / attempts[i],
            "redraws": redraws[i],
        }
        for i, cand in enumerate(inventory)
    }
    report["eliminated"] = [
        name for name in sorted(report) if report[name]["pass_rate"] < 0.01
    ]
    return report
