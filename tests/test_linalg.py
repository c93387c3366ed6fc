"""Tests for the dense matrix kernel."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ybe4 import families
from ybe4.errors import (
    ConstraintViolation,
    DimensionError,
    NonConvergence,
    NonFiniteValue,
    SingularMatrix,
)
from ybe4.families import hietarinta_candidates
from ybe4.linalg import (
    DEFAULT_TOL,
    Tolerance,
    _merge_root_clusters,
    as_square,
    char_poly,
    dagger,
    eigenvalues,
    frobenius,
    inverse,
    is_unitary,
    kron,
)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def greedy_match(got, want):
    """Max distance when greedily pairing two equal-length complex multisets."""
    got = list(got)
    worst = 0.0
    for w in want:
        i = int(np.argmin([abs(g - w) for g in got]))
        worst = max(worst, abs(got.pop(i) - w))
    return worst


def test_kron_block_convention():
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    B = np.array([[0, 5], [6, 7]], dtype=complex)
    K = kron(A, B)
    assert K.shape == (4, 4)
    # entry ((i,k),(j,l)) = A[i,j] B[k,l] with composite row i*2+k
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert K[2 * i + k, 2 * j + l] == A[i, j] * B[k, l]


KRON_SHAPES = [
    ((1, 1), (2, 3)),
    ((2, 3), (3, 2)),
    ((4, 4), (2, 2)),
    ((3,), (2,)),
    ((3,), (2, 2)),
    ((2, 3), (4,)),
]


@pytest.mark.parametrize("a_shape, b_shape", KRON_SHAPES)
@pytest.mark.parametrize("dtype", [float, complex])
def test_kron_bitwise_equals_numpy(a_shape, b_shape, dtype):
    rng = np.random.default_rng(len(a_shape) * 10 + len(b_shape))
    for _ in range(5):
        A, B = (rng.normal(size=shape) for shape in (a_shape, b_shape))
        if dtype is complex:
            A = A + 1j * rng.normal(size=a_shape)
            B = B - 1j * rng.normal(size=b_shape)
        got = kron(A, B)
        want = np.kron(A.astype(complex), B.astype(complex))
        assert got.dtype == complex and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_dagger_and_frobenius():
    A = np.array([[1 + 2j, 3], [4j, 5]], dtype=complex)
    assert np.array_equal(dagger(A), A.conj().T)
    assert frobenius(A) == pytest.approx(np.sqrt(1 + 4 + 9 + 16 + 25))


def test_inverse_known_matrix():
    A = np.array([[1, 1], [-1, 1]], dtype=complex)
    expect = 0.5 * np.array([[1, -1], [1, 1]], dtype=complex)
    assert np.allclose(inverse(A), expect, atol=1e-14)


def test_inverse_rejects_singular():
    with pytest.raises(SingularMatrix):
        inverse(np.array([[1, 2], [2, 4]], dtype=complex))
    with pytest.raises(SingularMatrix):
        inverse(np.zeros((3, 3)))


def test_inverse_respects_pivot_threshold():
    A = np.diag([1.0, 1e-8]).astype(complex)
    with pytest.raises(SingularMatrix):
        inverse(A)
    # a looser threshold lets the same matrix through
    loose = Tolerance(singular_tol=1e-12)
    assert np.allclose(A @ inverse(A, tol=loose), np.eye(2), atol=1e-6)


def test_singular_matrix_carries_singular_values():
    with pytest.raises(SingularMatrix) as info:
        inverse(np.diag([2.0, 1e-7]))
    assert info.value.value == pytest.approx(1e-7)
    assert info.value.bound == pytest.approx(2.0 * DEFAULT_TOL.singular_tol)
    with pytest.raises(SingularMatrix) as info:
        inverse(np.zeros((2, 2)))
    assert info.value.value == 0.0 and info.value.bound == 0.0


def test_inverse_exact_zero_pivot_under_tiny_tol_is_singular():
    # sigma_min is rounding noise, far above a 1e-300 threshold, and LAPACK
    # meets an exact zero pivot
    tiny = Tolerance(singular_tol=1e-300)
    with pytest.raises(SingularMatrix) as info:
        inverse(np.array([[1, 2], [2, 4]], dtype=complex), tol=tiny)
    assert info.value.value > info.value.bound


@pytest.mark.filterwarnings("error")
def test_inverse_at_the_ends_of_the_float_range():
    # 1/5e-324 is not a float: typed error, no overflow warning
    with pytest.raises(NonFiniteValue):
        inverse(5e-324 * np.eye(2))
    # singular values past the float range
    big = 1.7e308 * np.array([[1, 1], [1, -1]], dtype=complex)
    with pytest.raises(NonFiniteValue):
        inverse(big)
    # a representable inverse whose elimination would overflow unscaled
    A = 1e308 * np.array([[1, 1], [1, -1]], dtype=complex)
    Ainv = inverse(A)
    assert np.allclose(A @ Ainv, np.eye(2), atol=1e-12)


def test_inverse_is_lapacks_inverse_bitwise():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        for scale in (1e-200, 1e-3, 1.0, 7e5, 1e200):
            A = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            assert np.array_equal(inverse(A), np.linalg.inv(A))


def _unitary(rng, n):
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-150, 150),
    log_ratio=st.floats(-12, 0).filter(
        lambda x: abs(x - np.log10(DEFAULT_TOL.singular_tol)) >= np.log10(2)
    ),
)
def test_inverse_raises_exactly_below_singular_value_ratio(n, seed, log_scale, log_ratio):
    """A = U diag(s) V^dag: SingularMatrix exactly when s_min / s_max <= singular_tol."""
    rng = np.random.default_rng(seed)
    s_max, ratio = 10.0**log_scale, 10.0**log_ratio
    inner = 10.0 ** rng.uniform(log_ratio, 0.0, n - 2)
    s = s_max * np.sort(np.r_[1.0, inner, ratio])[::-1]
    A = _unitary(rng, n) @ np.diag(s) @ dagger(_unitary(rng, n))
    if ratio <= DEFAULT_TOL.singular_tol:
        with pytest.raises(SingularMatrix) as info:
            inverse(A)
        assert info.value.value <= info.value.bound
        return
    cond = 1.0 / ratio
    assert frobenius(A @ inverse(A) - np.eye(n)) <= 1e-12 * cond


def test_char_poly_identity():
    assert np.allclose(char_poly(np.eye(4)), [1, -4, 6, -4, 1], atol=1e-12)


def test_char_poly_diagonal():
    got = char_poly(np.diag([2, 8, 2, -8]).astype(complex))
    assert np.allclose(got, [1, -4, -60, 256, -256], atol=1e-9)


def test_char_poly_swap():
    assert np.allclose(char_poly(SWAP), [1, -2, 0, 2, -1], atol=1e-12)


def test_eigenvalues_swap():
    assert greedy_match(eigenvalues(SWAP), [1, 1, 1, -1]) < 1e-8


def test_eigenvalues_fourfold_symmetric_matrix():
    # symmetric matrix whose spectrum splits into two +/- pairs
    M = np.array(
        [[1, 0, 0, -3], [0, 5, -3, 0], [0, -3, 5, 0], [-3, 0, 0, -7]],
        dtype=complex,
    )
    assert greedy_match(eigenvalues(M), [2, 8, 2, -8]) < 1e-7


def test_eigenvalues_defective_multiple_roots():
    # unipotent triangular: quadruple eigenvalue 1 with nontrivial Jordan
    # structure; naive polynomial rooting would scatter it by ~1e-4
    A = np.array(
        [[1, 2, -2, 4], [0, 1, 0, 3], [0, 0, 1, -3], [0, 0, 0, 1]], dtype=complex
    )
    got = eigenvalues(A)
    assert greedy_match(got, [1, 1, 1, 1]) < 1e-10
    mods = np.abs(got)
    assert (mods.max() - mods.min()) / mods.max() < 1e-12


# Upper triangular Jordan structures 4, 3+1 and 2+1+1 with their exact
# spectra: the multiple root 1 sits in one nontrivial Jordan block
JORDAN_STRUCTURES = (
    (
        np.array([[1, 2, -2, 4], [0, 1, 0, 3], [0, 0, 1, -3], [0, 0, 0, 1]]),
        [1, 1, 1, 1],
    ),
    (
        np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, -1]]),
        [1, 1, 1, -1],
    ),
    (
        np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1j]]),
        [1, 1, -1, 1j],
    ),
)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0), st.integers(0, 2**32 - 1))
def test_eigenvalues_defective_root_is_scale_invariant(log_c, seed):
    # c * S B S^-1 keeps the multiple root c of every Jordan structure B
    # exactly repeated, and every root within 1e-10 c of its exact value
    c = 10.0**log_c
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
    for B, exact in JORDAN_STRUCTURES:
        got = eigenvalues(c * S @ B @ np.linalg.inv(S))
        assert len(got) == 4
        multiple = got[np.abs(got - c) <= 1e-6 * c]
        assert len(multiple) == exact.count(1)
        assert np.all(multiple == multiple[0])
        assert greedy_match(got, c * np.asarray(exact)) <= 1e-10 * c


@pytest.mark.parametrize("c", [1e-150, 1e-3, 1.0, 1e3, 1e80, 1e150])
def test_eigenvalues_rejects_a_non_root_at_every_scale(c, monkeypatch):
    # a root solver that returns 1.5c in place of c must be caught whatever
    # the scale; a bound with an absolute floor of 1 let it pass at c = 1e-3
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: np.array([1.5, 2, 3, 4]) * c)
    with pytest.raises(NonConvergence):
        eigenvalues(np.diag([1.0, 2.0, 3.0, 4.0]) * c)


def test_eigenvalues_dim2_closed_form():
    M = np.array([[3, 1], [0, 3 + 1e-9]], dtype=complex)
    got = eigenvalues(M)
    assert greedy_match(got, [3, 3 + 1e-9]) < 1e-6


def test_eigenvalues_agree_with_numpy_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = rng.integers(2, 7)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        got = eigenvalues(A)
        want = np.linalg.eigvals(A)
        assert greedy_match(got, want) < 1e-7


def test_is_unitary_examples():
    ok, defect = is_unitary(np.eye(4))
    assert ok and defect < 1e-15
    hada = np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [-1, 0, 0, 1]], dtype=complex
    )
    ok, _ = is_unitary(hada)
    assert not ok
    ok, defect = is_unitary(hada / np.sqrt(2))
    assert ok and defect < 1e-12


def test_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        inverse(np.ones((2, 3)))
    with pytest.raises(ValueError):
        char_poly(np.array([[np.inf, 0], [0, 1]]))
    # non-square input is a DimensionError, non-finite input a plain ValueError
    with pytest.raises(DimensionError):
        as_square(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        eigenvalues(np.ones(4))
    with pytest.raises(ValueError) as info:
        as_square(np.array([[np.nan, 0], [0, 1]]))
    assert not isinstance(info.value, DimensionError)


small_complex = st.complex_numbers(
    max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


def square(n):
    return arrays(np.complex128, (n, n), elements=small_complex)


@settings(max_examples=40, deadline=None)
@given(square(2), square(2), square(2), square(2))
def test_kron_mixed_product(A, B, C, D):
    lhs = kron(A, B) @ kron(C, D)
    rhs = kron(A @ C, B @ D)
    assert np.allclose(lhs, rhs, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(square(3), square(3))
def test_dagger_reverses_products(A, B):
    assert np.allclose(dagger(A @ B), dagger(B) @ dagger(A), atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(square(3))
def test_inverse_roundtrip_when_well_conditioned(A):
    A = A + 4.0 * np.eye(3)
    try:
        Ainv = inverse(A)
    except SingularMatrix:
        return
    assert np.allclose(A @ Ainv, np.eye(3), atol=1e-6)
    assert np.allclose(Ainv @ A, np.eye(3), atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(square(4))
def test_char_poly_matches_numpy(A):
    got = np.asarray(char_poly(A))
    want = np.poly(A)
    scale = max(1.0, np.abs(want).max())
    assert np.allclose(got, want, atol=1e-7 * scale)


def test_default_tolerance_values():
    assert DEFAULT_TOL.eq_tol == 1e-9
    assert DEFAULT_TOL.residual_tol == 1e-9
    assert DEFAULT_TOL.singular_tol == 1e-6


@pytest.mark.parametrize("field", ["eq_tol", "residual_tol", "singular_tol"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1e-9])
def test_tolerance_rejects_non_positive_or_non_finite(field, bad):
    with pytest.raises(ConstraintViolation):
        Tolerance(**{field: bad})


def stack_of_mixed_spectra():
    """Random, defective and scaled matrices, shaped (2, 3, 4, 4)."""
    rng = np.random.default_rng(21)
    mats = []
    for c, (B, _) in zip((1e-2, 1.0, 1e2), JORDAN_STRUCTURES):
        S = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
        mats.append(c * S @ B @ np.linalg.inv(S))
    mats += [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2)]
    mats.append(SWAP)
    return np.array(mats).reshape(2, 3, 4, 4)


def test_char_poly_and_eigenvalues_take_stacks():
    # each matrix of a stack gets exactly the result it gets alone
    stack = stack_of_mixed_spectra()
    coeffs = char_poly(stack)
    roots = eigenvalues(stack)
    assert coeffs.shape == (2, 3, 5) and roots.shape == (2, 3, 4)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(coeffs[idx], char_poly(stack[idx]))
        assert np.array_equal(roots[idx], eigenvalues(stack[idx]))
    rng = np.random.default_rng(31)
    for n in range(1, 9):
        for lead in [(), (1,), (0,), (2, 3)]:
            shape = lead + (n, n)
            A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            A *= 10.0 ** rng.uniform(-3, 3)
            coeffs, roots = char_poly(A), eigenvalues(A)
            assert coeffs.shape == lead + (n + 1,) and roots.shape == lead + (n,)
            for idx in np.ndindex(lead):
                assert np.array_equal(coeffs[idx], char_poly(A[idx]))
                assert np.array_equal(roots[idx], eigenvalues(A[idx]))
    with pytest.raises(DimensionError):
        eigenvalues(np.ones((2, 3, 4)))
    with pytest.raises(DimensionError):
        as_square(stack)


def _char_poly_two_products(A):
    """Reference: the Faddeev-LeVerrier recursion with A @ M formed twice per
    step, once for the next M and once for the trace."""
    n = A.shape[-1]
    eye = np.eye(n, dtype=complex)
    coeffs = np.zeros(A.shape[:-2] + (n + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[..., k - 1, None, None] * eye
        coeffs[..., k] = -np.trace(A @ M, axis1=-2, axis2=-1) / k
    return coeffs


def _char_poly_inputs():
    """SWAP, the mixed stack, 55 inventory draws as one stack and 300 random
    stacks with n = 2..8, up to two leading axes and scales 1e-5..1e5."""
    rng = np.random.default_rng(47)
    inputs = [SWAP, stack_of_mixed_spectra()]
    inputs.append(
        np.array([c.sample(rng) for c in hietarinta_candidates() for _ in range(5)])
    )
    for _ in range(300):
        n = int(rng.integers(2, 9))
        shape = tuple(rng.integers(1, 4, size=rng.integers(0, 3))) + (n, n)
        scale = 10.0 ** rng.uniform(-5, 5)
        inputs.append(scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape)))
    return [np.asarray(A, dtype=complex) for A in inputs]


def test_char_poly_matches_the_recursion_to_rounding():
    # power traces and Newton's identities against Faddeev-LeVerrier: the
    # coefficients differ in rounding only.  Measured on these 303 inputs:
    # |c_k - c_k(ref)| <= 3.9e-16 * ||A||_F^k at most; the bound is 1e-15
    for A in _char_poly_inputs():
        got, want = char_poly(A), _char_poly_two_products(A)
        norm = np.linalg.norm(A, axis=(-2, -1))[..., None]
        powers = norm ** np.arange(A.shape[-1] + 1)
        assert np.all(np.abs(got - want) <= 1e-15 * powers)


def _exact_char_poly(A):
    """det(x I - A) by the Faddeev-LeVerrier recursion in exact Gaussian
    rationals: real and imaginary parts as object arrays of Fractions."""
    n = len(A)
    re, im = (np.vectorize(Fraction, otypes=[object])(part) for part in (A.real, A.imag))
    eye = np.eye(n, dtype=int).astype(object)
    coeffs = [(Fraction(1), Fraction(0))]
    Mr, Mi = eye, 0 * eye
    for k in range(1, n + 1):
        ARr, ARi = re @ Mr - im @ Mi, re @ Mi + im @ Mr
        c = (-np.trace(ARr) / k, -np.trace(ARi) / k)
        coeffs.append(c)
        Mr, Mi = ARr + c[0] * eye, ARi + c[1] * eye
    return coeffs


def test_char_poly_is_exact_on_gaussian_integer_matrices():
    # entries a + bi with |a|, |b| <= 2: every entry of A^k, every sum of
    # products in a power trace and every Newton term is a Gaussian integer
    # below 2**50 (checked below), so the float computation must be exact,
    # whatever the summation order
    rng = np.random.default_rng(53)
    for n in range(1, 9):
        A = rng.integers(-2, 3, size=(3, n, n)) + 1j * rng.integers(-2, 3, size=(3, n, n))
        got = char_poly(A)
        for row, M in zip(got, A):
            exact = _exact_char_poly(M)
            coeff = max(abs(re) + abs(im) for re, im in exact)
            power = [np.linalg.matrix_power(M, k) for k in range(n + 1)]
            entry = max(np.abs(P).max() for P in power[: (n + 3) // 2])
            trace = max(abs(np.trace(P)) for P in power)
            assert 2 * n * n * entry**2 < 2**50 and 2 * n * coeff * trace < 2**50
            assert [(Fraction(c.real), Fraction(c.imag)) for c in row] == exact


# The subset walk of the earlier merge, kept as the reference for the plan
# made once per tight pattern; its radii are written out here, so a change
# to linalg's table shows up as a mismatch
_REFERENCE_RADIUS = {2: 5e-6, 3: 5e-4, 4: 8e-3}


def _merge_reference(roots, scale):
    out = np.array(roots, dtype=complex)
    n = out.shape[-1]
    rows = out.reshape(-1, n)
    scale = np.reshape(scale, -1)
    dist = np.abs(rows[:, :, None] - rows[:, None, :])
    merged = np.zeros(rows.shape, dtype=bool)
    for m in range(n, 1, -1):
        members = np.array(list(combinations(range(n), m)))
        pairs = np.array([list(combinations(idx, 2)) for idx in members])
        i, j = pairs[..., 0], pairs[..., 1]
        allow = (_REFERENCE_RADIUS.get(m, 2e-2) * scale)[:, None, None]
        tight = (dist[:, i, j] <= allow).all(axis=2)
        for c in np.flatnonzero(tight.any(axis=0)):
            idx = members[c]
            hit = tight[:, c] & ~merged[:, idx].any(axis=1)
            if hit.any():
                cell = np.ix_(hit, idx)
                rows[cell] = rows[cell].mean(axis=1, keepdims=True)
                merged[cell] = True
    return out


def _near_ties(rng, n, c):
    """n roots of modulus about c in clusters round 1..n centres, each
    cluster of radius 1e-7..5e-2 times c, and a scale of 0.5c..2c."""
    centres = c * np.exp(2j * np.pi * rng.random(rng.integers(1, n + 1)))
    label = rng.integers(0, len(centres), size=n)
    radius = c * 10.0 ** rng.uniform(-7, -1.3, size=(len(centres), 1))
    if rng.random() < 0.5:  # every member on the circle round its centre
        phase = (np.arange(n) / n + rng.random(len(centres))[:, None])[label, np.arange(n)]
        offset = radius[label, 0] * np.exp(2j * np.pi * phase)
    else:
        offset = radius[label, 0] * rng.random(n) * np.exp(2j * np.pi * rng.random(n))
    return centres[label] + offset, c * rng.uniform(0.5, 2)


def test_cluster_merge_matches_the_subset_walk_bitwise():
    rng = np.random.default_rng(61)
    for n in range(1, 9):
        for c in 10.0 ** np.linspace(-150, 150, 7):
            sets = [_near_ties(rng, n, c) for _ in range(40)]
            roots = np.array([r for r, _ in sets]).reshape(4, 10, n)
            scale = np.array([s for _, s in sets]).reshape(4, 10)
            got = _merge_root_clusters(roots, scale)
            assert got.tobytes() == _merge_reference(roots, scale).tobytes()
            assert n == 1 or (got != roots).any()


def test_cluster_merge_matches_the_subset_walk_on_filter_stacks(monkeypatch):
    stacks = []
    verdicts = families._filter_verdicts

    def keep(M, rel_tol):
        stacks.append(M)
        return verdicts(M, rel_tol)

    monkeypatch.setattr(families, "_filter_verdicts", keep)
    for seed in range(50):
        families.run_elimination(20, seed)
    for M in stacks:
        roots, scale = np.linalg.eigvals(M), np.abs(M).max(axis=(-2, -1))
        got = _merge_root_clusters(roots, scale)
        assert got.tobytes() == _merge_reference(roots, scale).tobytes()


def test_cluster_merge_takes_subsets_in_combinations_order():
    # roots 1 + 0.0045 k, k = 0..5: all six span more than 0.02 max|A|, but
    # both runs of five fit; a root joins at most one cluster, so only the
    # first run in combinations order merges.  With 1.3 in place of the
    # first root, the second run is the only one that fits, and it merges.
    chain = 1 + 0.0045 * np.arange(6)
    got = eigenvalues(np.array([np.diag(chain), np.diag(np.r_[1.3, chain[1:]])]))
    assert np.all(got[0, :5] == got[0, 0]) and got[0, 5] == chain[5]
    assert got[0, 0] == pytest.approx(chain[:5].mean(), abs=1e-15)
    assert got[1, 0] == 1.3 and np.all(got[1, 1:] == got[1, 1])
    assert got[1, 1] == pytest.approx(chain[1:].mean(), abs=1e-15)


def test_non_convergence_carries_root_residual_and_bound(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: np.array([1.5, 2, 3, 4]))
    with pytest.raises(NonConvergence) as info:
        eigenvalues(np.diag([1.0, 2.0, 3.0, 4.0]))
    err = info.value
    # p(1.5) = (0.5)(-0.5)(-1.5)(-2.5) for p(z) = (z-1)(z-2)(z-3)(z-4)
    assert err.root == 1.5 and err.index is None
    assert err.residual == pytest.approx(0.9375, rel=1e-12)
    assert err.residual > err.bound > 0
    assert str(err) == f"root residual 9.375e-01 exceeds 1e-8 * {err.bound / 1e-8:.3e}"
    assert "stack row" not in str(err)


def test_non_convergence_names_the_first_failing_stack_row(monkeypatch):
    eigvals = np.linalg.eigvals

    def corrupt_rows_2_and_4(A):
        roots = eigvals(A)
        roots[[2, 4], 1] += 0.25
        return roots

    monkeypatch.setattr(np.linalg, "eigvals", corrupt_rows_2_and_4)
    stack = np.array([np.diag([1.0, 2.0, 3.0, 4.0]) * (i + 1) for i in range(6)])
    with pytest.raises(NonConvergence) as info:
        eigenvalues(stack)
    assert info.value.index == 2
    assert info.value.residual > info.value.bound
    assert str(info.value).endswith("in stack row 2")


@pytest.mark.filterwarnings("error")
def test_is_unitary_on_overflowing_entries():
    # A†A overflows; the verdict is False with an infinite defect, silently
    ok, defect = is_unitary(np.full((4, 4), 1e300))
    assert not ok and defect == np.inf


@pytest.mark.parametrize("c", [1e-150, 1e80, 1e150])
def test_eigenvalues_at_extreme_scales_are_lapack_roots(c):
    # the check runs on 2**-e * A, with no overflow or underflow warning;
    # the roots returned are in A's own units
    got = eigenvalues(c * np.diag([1.0, 1.0, 1.0, 2.0]))
    assert greedy_match(got, c * np.array([1.0, 1.0, 1.0, 2.0])) <= 1e-15 * c


def test_non_convergence_beyond_the_float_range_names_the_ratio(monkeypatch):
    # p(1.5e150) is 0.9375e600 in A's units: an inf residual and bound,
    # with the ratio that decided the check in the message
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: np.array([1.5, 2, 3, 4]) * 1e150)
    with pytest.raises(NonConvergence) as info:
        eigenvalues(np.diag([1.0, 2.0, 3.0, 4.0]) * 1e150)
    assert info.value.residual == info.value.bound == np.inf
    assert "beyond the float range" in str(info.value)


def _non_numeric_calls():
    from ybe4 import (
        BraidWord,
        FamilySpec,
        TwoQubitState,
        braid_rep,
        braided_residual,
        bracket_R,
        d_matrix,
        delta_lower_bound,
        eigenvalue_filter,
        f2_params,
        gram,
        is_product_state,
        loop_value,
        odot,
        realign,
        solution_check,
        write_matrix_file,
    )

    word = BraidWord(3, ((1, 1),))
    return {
        "inverse": lambda: inverse("ab"),
        "braided_residual": lambda: braided_residual("ab"),
        "solution_check": lambda: solution_check("ab"),
        "char_poly": lambda: char_poly("ab"),
        "braid_rep": lambda: braid_rep("ab", word),
        "realign": lambda: realign("ab"),
        "kron": lambda: kron("ab", np.eye(2)),
        "dagger": lambda: dagger("ab"),
        "frobenius": lambda: frobenius("ab"),
        "gram": lambda: gram("ab"),
        "f2_params": lambda: f2_params("ab"),
        "d_matrix": lambda: d_matrix("ab", np.eye(2)),
        "FamilySpec": lambda: FamilySpec("F5", "ab"),
        "TwoQubitState": lambda: TwoQubitState("ab"),
        "is_product_state": lambda: is_product_state("ab"),
        "is_unitary": lambda: is_unitary({"a": 1}),
        "eigenvalue_filter": lambda: eigenvalue_filter(object()),
        "odot": lambda: odot("ab", np.eye(2)),
        "loop_value": lambda: loop_value("ab"),
        "bracket_R": lambda: bracket_R(1j, "ab"),
        "delta_lower_bound": lambda: delta_lower_bound("ab"),
        "write_matrix_file": lambda: write_matrix_file("unused.json", "ab"),
    }


@pytest.mark.parametrize("name", sorted(_non_numeric_calls()))
def test_non_numeric_input_is_a_constraint_violation(name, tmp_path, monkeypatch):
    # numpy's own ValueError or TypeError, untyped, came out of each before
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConstraintViolation, match="expected an array of numbers"):
        _non_numeric_calls()[name]()
    assert not (tmp_path / "unused.json").exists()


def test_frobenius_keeps_a_real_input_real():
    # a real array's norm is summed as real: converting it to complex first
    # changes the BLAS summation and, in the last bit, the result
    A = np.random.default_rng(3).normal(size=(4, 4))
    assert frobenius(A) == float(np.linalg.norm(A))
