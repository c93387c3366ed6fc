"""Tests for residual computation and braid images."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from ybe4.core import (
    BraidWord,
    algebraic_residual,
    braid_rep,
    braided_residual,
    compose_with_swap,
    contraction_residual,
    is_algebraic_solution,
    is_braided_solution,
    solution_check,
    swap_matrix,
)
from ybe4.errors import ConstraintViolation, DimensionError, SingularMatrix, SizeExceeded
from ybe4.families import FAMILY_NAMES, family_member, random_family_spec
from ybe4.linalg import frobenius, inverse

SWAP = swap_matrix(2)
HADA = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [-1, 0, 0, 1]], dtype=complex
) / np.sqrt(2)


def crand(rng, shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2)


def test_swap_matrix_explicit():
    want = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(SWAP, want)


def test_swap_matrix_permutes_basis():
    for d in (2, 3):
        P = swap_matrix(d)
        assert np.allclose(P @ P, np.eye(d * d))
        for i in range(d):
            for j in range(d):
                v = np.zeros(d * d)
                v[d * i + j] = 1.0
                w = np.zeros(d * d)
                w[d * j + i] = 1.0
                assert np.array_equal(P @ v, w)


def test_known_braided_solutions():
    assert braided_residual(np.eye(4)) < 1e-14
    assert braided_residual(SWAP) < 1e-14
    assert is_braided_solution(HADA @ SWAP)


def test_known_algebraic_solutions():
    assert algebraic_residual(np.eye(4)) < 1e-14
    assert algebraic_residual(SWAP) < 1e-14
    assert is_algebraic_solution(HADA)


def test_random_matrix_is_not_a_solution():
    rng = np.random.default_rng(3)
    M = crand(rng, (4, 4))
    assert braided_residual(M) > 1e-2
    assert algebraic_residual(M) > 1e-2


def test_swap_composition_bridges_the_two_forms():
    rng = np.random.default_rng(11)
    for _ in range(10):
        M = crand(rng, (4, 4))
        a = algebraic_residual(M)
        b = braided_residual(compose_with_swap(M))
        assert a == pytest.approx(b, rel=1e-12)


def test_contraction_residual_matches_matrix_route():
    rng = np.random.default_rng(5)
    for _ in range(5):
        M = crand(rng, (4, 4))
        assert contraction_residual(M, "braided") == pytest.approx(
            braided_residual(M), abs=1e-12
        )
        assert contraction_residual(M, "algebraic") == pytest.approx(
            algebraic_residual(M), abs=1e-12
        )


def test_contraction_residual_dim3():
    P3 = swap_matrix(3)
    assert contraction_residual(P3, "braided") < 1e-13
    rng = np.random.default_rng(9)
    M = crand(rng, (9, 9))
    assert contraction_residual(M, "algebraic") == pytest.approx(
        algebraic_residual(M), abs=1e-11
    )


def loop_contraction_residual(R, form):
    """The component formulas of contraction_residual, summed term by term."""
    d = round(R.shape[0] ** 0.5)
    T = R.reshape(d, d, d, d)
    total = 0.0
    for i, j, k, x, y, z in product(range(d), repeat=6):
        terms = product(range(d), repeat=3)
        if form == "braided":
            diff = sum(
                T[a, b, i, j] * T[c, z, b, k] * T[x, y, a, c]
                - T[b, c, j, k] * T[x, a, i, b] * T[y, z, a, c]
                for a, b, c in terms
            )
        else:
            diff = sum(
                T[a, b, j, k] * T[c, z, i, b] * T[x, y, c, a]
                - T[a, b, i, j] * T[x, c, a, k] * T[y, z, b, c]
                for a, b, c in terms
            )
        total += abs(diff) ** 2
    return np.sqrt(total)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("form", ["braided", "algebraic"])
def test_contraction_residual_matches_component_loops(d, form):
    rng = np.random.default_rng(17)
    M = crand(rng, (d * d, d * d))
    assert contraction_residual(M, form) == pytest.approx(
        loop_contraction_residual(M, form), rel=1e-12
    )


def test_contraction_residual_rejects_unknown_form():
    with pytest.raises(ValueError):
        contraction_residual(np.eye(4), "sideways")


def test_residual_rejects_non_tensor_square():
    with pytest.raises(ValueError):
        braided_residual(np.eye(5))
    for residual in (braided_residual, algebraic_residual):
        with pytest.raises(DimensionError):
            residual(np.eye(5))


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(1)
    with pytest.raises(ValueError):
        BraidWord(3, ((3, 1),))
    with pytest.raises(ValueError):
        BraidWord(3, ((1, 2),))


def test_construction_errors_are_typed():
    for n, letters in ((1, ()), (3, ((3, 1),)), (3, ((1, 2),))):
        with pytest.raises(ConstraintViolation):
            BraidWord(n, letters)
    with pytest.raises(ConstraintViolation, match="unknown form"):
        solution_check(SWAP, "twisted")
    with pytest.raises(ConstraintViolation, match="unknown form"):
        contraction_residual(SWAP, "twisted")


def test_braid_rep_empty_word_and_single_letter():
    assert np.array_equal(braid_rep(HADA, BraidWord(2)), np.eye(4))
    assert np.allclose(braid_rep(HADA, BraidWord(2, ((1, 1),))), HADA)


def test_braid_rep_inverse_letter_cancels():
    word = BraidWord(3, ((1, 1), (1, -1)))
    assert np.allclose(braid_rep(HADA, word), np.eye(8), atol=1e-12)


def test_braid_rep_singular_inverse():
    sing = np.diag([1, 1, 1, 0]).astype(complex)
    with pytest.raises(SingularMatrix):
        braid_rep(sing, BraidWord(2, ((1, -1),)))
    near = np.diag([2, 1, 1, 1e-7]).astype(complex)
    with pytest.raises(SingularMatrix) as info:
        braid_rep(near, BraidWord(2, ((1, -1),)))
    assert info.value.value == pytest.approx(1e-7)
    assert info.value.bound == pytest.approx(2e-6)


def test_braid_rep_size_cap():
    with pytest.raises(SizeExceeded):
        braid_rep(HADA, BraidWord(7))
    # a custom cap overrides the default
    big = braid_rep(SWAP, BraidWord(7), max_strands=7)
    assert big.shape == (128, 128)


def test_braid_relation_for_braided_solutions():
    R = HADA @ SWAP
    lhs = braid_rep(R, BraidWord(3, ((1, 1), (2, 1), (1, 1))))
    rhs = braid_rep(R, BraidWord(3, ((2, 1), (1, 1), (2, 1))))
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_far_generators_commute():
    R = HADA @ SWAP
    lhs = braid_rep(R, BraidWord(4, ((1, 1), (3, 1))))
    rhs = braid_rep(R, BraidWord(4, ((3, 1), (1, 1))))
    assert np.linalg.norm(lhs - rhs) < 1e-13


def dense_braid_rep(R, word):
    """The dense route: multiply in I^(i-1) (x) R^(+-1) (x) I^(n-1-i) per letter."""
    d = round(R.shape[0] ** 0.5)
    n = word.n_strands
    out = np.eye(d ** n, dtype=complex)
    for k, (idx, exp) in enumerate(word.letters):
        block = R if exp == 1 else inverse(R)
        gen = np.kron(np.eye(d ** (idx - 1)), np.kron(block, np.eye(d ** (n - 1 - idx))))
        out = gen if k == 0 else out @ gen
    return out


def random_word(rng, n, length, signs=(1, -1)):
    letters = tuple(
        (int(rng.integers(1, n)), int(rng.choice(signs))) for _ in range(length)
    )
    return BraidWord(n, letters)


def random_unitary(rng, n):
    Q, _ = np.linalg.qr(crand(rng, (n, n)))
    return Q


def braid_operators():
    """(R, exponents) pairs: family members, a 9x9 unitary and non-unitary R."""
    rng = np.random.default_rng(23)
    ops = []
    for family in FAMILY_NAMES:
        for form in ("braided", "algebraic"):
            ops.append((family_member(random_family_spec(family, rng), form), (1, -1)))
    ops.append((random_unitary(rng, 9), (1, -1)))
    # a non-unitary R, scaled so the bound's max|R| factor matters
    ops.append((3.0 * crand(rng, (4, 4)), (1,)))
    ops.append((2.0 * crand(rng, (9, 9)), (1,)))
    return ops


@pytest.mark.parametrize("case", range(len(braid_operators())))
def test_braid_rep_matches_dense_route(case):
    R, signs = braid_operators()[case]
    d = round(R.shape[0] ** 0.5)
    rng = np.random.default_rng(100 + case)
    for n in range(2, 7):
        # a dense 3^6 = 729 dimensional product would take seconds per letter
        for length in (1, 2, 5) if d ** n <= 243 else (1,):
            word = random_word(rng, n, length, signs)
            got = braid_rep(R, word)
            want = dense_braid_rep(R, word)
            bound = 1e-14 * max(1.0, np.abs(R).max()) ** length
            assert np.abs(got - want).max() <= bound, (n, word.letters)


def tensordot_braid_rep(R, word):
    """The earlier route: contract each letter into the image's strand axes."""
    d = round(R.shape[0] ** 0.5)
    n = word.n_strands
    dim = d ** n
    out = np.eye(dim, dtype=complex).reshape((dim,) + (d,) * n)
    for idx, exp in word.letters:
        block = R if exp == 1 else inverse(R)
        out = np.tensordot(out, block.reshape(d, d, d, d), axes=((idx, idx + 1), (0, 1)))
        out = np.moveaxis(out, (-2, -1), (idx, idx + 1))
    return out.reshape(dim, dim)


def test_braid_rep_bitwise_equals_tensordot_route_dim2():
    # both routes sum the same four products per entry in the same order
    rng = np.random.default_rng(31)
    ops = [
        family_member(random_family_spec(family, rng), form)
        for family in FAMILY_NAMES
        for form in ("braided", "algebraic")
    ]
    ops += [ops[k] + 0.3 * crand(rng, (4, 4)) for k in (0, 5)]
    for R in ops:
        for n in range(2, 7):
            for length in (1, 3):
                word = random_word(rng, n, length)
                got = braid_rep(R, word)
                assert np.array_equal(got, tensordot_braid_rep(R, word)), (n, word)


def test_braid_rep_matches_tensordot_route_dim3():
    # nine products per entry, which BLAS may sum in another order
    rng = np.random.default_rng(32)
    for R in (random_unitary(rng, 9), 2.0 * crand(rng, (9, 9))):
        for n in range(2, 7):
            word = random_word(rng, n, 2 if n < 6 else 1)
            got = braid_rep(R, word)
            want = tensordot_braid_rep(R, word)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (n, word)


@pytest.mark.parametrize("d", [2, 3])
def test_braid_rep_empty_word_is_exact_identity(d):
    R = crand(np.random.default_rng(d), (d * d, d * d))
    for n in range(2, 7):
        got = braid_rep(R, BraidWord(n))
        assert got.dtype == complex
        assert np.array_equal(got, np.eye(d ** n))


def test_braid_rep_singular_inverse_letter_dim3():
    R = np.eye(9, dtype=complex)
    R[8, 8] = 1e-9
    word = BraidWord(4, ((2, 1), (3, -1)))
    with pytest.raises(SingularMatrix) as info:
        braid_rep(R, word)
    assert info.value.value == pytest.approx(1e-9)
    assert info.value.bound == pytest.approx(1e-6)
    # the positive letters alone need no inverse
    assert braid_rep(R, BraidWord(4, ((2, 1), (3, 1)))).shape == (81, 81)


def embedding_algebraic_residual(R):
    """algebraic_residual with R13 built as (I (x) P) R12 (I (x) P)."""
    d = round(R.shape[0] ** 0.5)
    eye = np.eye(d, dtype=complex)
    mid = np.kron(eye, swap_matrix(d))
    R12 = np.kron(R, eye)
    R23 = np.kron(eye, R)
    R13 = mid @ R12 @ mid
    return frobenius(R12 @ R13 @ R23 - R23 @ R13 @ R12)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_algebraic_residual_bitwise_equals_swap_embedding(family):
    rng = np.random.default_rng(31)
    for _ in range(20):
        for form in ("algebraic", "braided"):
            M = family_member(random_family_spec(family, rng), form)
            for R in (M, M + 1e-3 * crand(rng, (4, 4))):
                assert algebraic_residual(R) == embedding_algebraic_residual(R)


def test_algebraic_residual_bitwise_equals_swap_embedding_dim3():
    rng = np.random.default_rng(37)
    for R in (swap_matrix(3), random_unitary(rng, 9), crand(rng, (9, 9))):
        assert algebraic_residual(R) == embedding_algebraic_residual(R)
