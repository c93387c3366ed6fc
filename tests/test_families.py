"""Tests for family construction, Gram conditions, and the elimination filter."""

from __future__ import annotations

import numpy as np
import pytest

from ybe4.core import algebraic_residual, braided_residual, swap_matrix
from ybe4.errors import ConstraintViolation, SingularMatrix
from ybe4.families import (
    FAMILY_NAMES,
    FamilySpec,
    case_matrix,
    d_matrix,
    eigenvalue_filter,
    f2_params,
    family_member,
    family_representative,
    gram,
    hietarinta_candidates,
    random_family_spec,
    run_elimination,
    validate_spec,
)
from ybe4.families import _r11
from ybe4.linalg import Tolerance, eigenvalues, frobenius, inverse, is_unitary, kron

SWAP = swap_matrix(2)


def test_family_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        FamilySpec("F9", np.eye(2))
    with pytest.raises(ValueError):
        FamilySpec("F1", np.eye(3))


def test_gram_of_rotation_like_matrix():
    g = gram(np.array([[1, 1], [-1, 1]], dtype=complex))
    assert g.x == pytest.approx(2)
    assert g.y == pytest.approx(2)
    assert abs(g.z) < 1e-15
    assert np.allclose(g.H, 4 * np.eye(4))


def test_gram_of_shear():
    g = gram(np.array([[1, 1], [0, 1]], dtype=complex))
    assert (g.x, g.y) == (1, 2)
    assert g.z == 1
    assert np.all(np.abs(g.H) > 0)


def test_representatives_have_the_right_shape():
    spec = FamilySpec("F1", np.eye(2), params={"p": 1j, "q": -1, "r": 1})
    assert np.array_equal(family_representative(spec), np.diag([1, 1j, -1, 1]))

    spec = FamilySpec("F3", np.eye(2), params={"p": 2j, "q": 0.5})
    R = family_representative(spec)
    assert R[0, 3] == 2j and R[3, 0] == 0.5 and R[1, 2] == 1 and R[2, 1] == 1

    spec = FamilySpec("F4", np.eye(2))
    R4 = family_representative(spec)
    assert np.allclose(R4 * np.sqrt(2), [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [-1, 0, 0, 1]])

    assert np.array_equal(family_representative(FamilySpec("F5", np.eye(2))), SWAP)


def test_f2_params_forced_by_shear():
    Q = np.array([[1, 1], [0, 1]], dtype=complex)
    p, q = f2_params(Q)
    assert p == pytest.approx(2)
    assert q == pytest.approx(0.5)
    assert p * q == pytest.approx(1, abs=1e-15)


def test_f2_params_require_gram_off_diagonal():
    with pytest.raises(ConstraintViolation):
        f2_params(np.eye(2))


def test_identity_spec_members():
    # trivial Q: F1 at p=q=r=1 gives the swap, F4 gives its pattern times swap
    swap_member = family_member(
        FamilySpec("F1", np.eye(2), params={"p": 1, "q": 1, "r": 1})
    )
    assert np.allclose(swap_member, SWAP)
    f4 = family_member(FamilySpec("F4", np.eye(2)))
    assert np.allclose(
        f4 * np.sqrt(2),
        np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [-1, 0, 0, 1]]) @ SWAP,
    )


def test_f5_member_collapses_to_scalar():
    rng = np.random.default_rng(2)
    for _ in range(5):
        spec = random_family_spec("F5", rng)
        M = family_member(spec)
        assert np.allclose(M, spec.k * np.eye(4), atol=1e-10)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_random_members_are_unitary_braided_solutions(family):
    rng = np.random.default_rng(17)
    for _ in range(10):
        spec = random_family_spec(family, rng)
        M = family_member(spec)
        ok, defect = is_unitary(M)
        assert ok, f"unitarity defect {defect:.2e}"
        assert braided_residual(M) < 1e-9


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_algebraic_form_members_solve_algebraic_equation(family):
    rng = np.random.default_rng(23)
    spec = random_family_spec(family, rng)
    M = family_member(spec, form="algebraic")
    assert algebraic_residual(M) < 1e-9


def test_conjugating_a_braided_solution_preserves_it():
    rng = np.random.default_rng(31)
    for _ in range(5):
        spec = random_family_spec("F1", rng)
        M = family_member(spec)
        Q = np.array(
            [[1 + rng.normal(), rng.normal()], [rng.normal(), 1 + rng.normal()]],
            dtype=complex,
        )
        try:
            V = kron(Q, Q)
            W = V @ M @ inverse(V)
        except SingularMatrix:
            continue
        cond = frobenius(V) * frobenius(inverse(V)) / 4
        assert braided_residual(W) < 1e-7 * cond**2


def test_validation_catches_broken_specs():
    bad_phase = FamilySpec("F1", np.eye(2), params={"p": 2.0, "q": 1, "r": 1})
    assert any("|p|" in v for v in validate_spec(bad_phase))
    with pytest.raises(ConstraintViolation):
        family_member(bad_phase)

    shear = np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(ConstraintViolation):
        family_member(FamilySpec("F1", shear, params={"p": 1, "q": 1, "r": 1}))
    with pytest.raises(ConstraintViolation):
        family_member(FamilySpec("F2", np.eye(2)))
    with pytest.raises(ConstraintViolation):
        family_member(FamilySpec("F4", np.diag([1.0, 2.0])))
    with pytest.raises(ConstraintViolation):
        family_member(FamilySpec("F3", np.diag([1.0, 2.0]), params={"p": 1, "q": 1}))
    with pytest.raises(ConstraintViolation):
        family_member(FamilySpec("F5", np.zeros((2, 2))))
    with pytest.raises(ConstraintViolation):
        family_member(FamilySpec("F5", np.eye(2), k=2.0))


def test_member_form_flag():
    spec = FamilySpec("F5", np.eye(2))
    assert np.allclose(family_member(spec, form="algebraic"), SWAP)
    with pytest.raises(ValueError):
        family_member(spec, form="diagonal")


def test_d_matrix_vanishes_exactly_for_valid_members():
    rng = np.random.default_rng(41)
    for family in FAMILY_NAMES:
        spec = random_family_spec(family, rng)
        R = family_representative(spec)
        D = d_matrix(R, spec.Q)
        assert frobenius(D) < 1e-10


def test_d_matrix_detects_non_unitary_members():
    rng = np.random.default_rng(43)
    # diagonal pattern conjugated by a shear-like Q breaks unitarity and D sees it
    for _ in range(20):
        spec = random_family_spec("F1", rng)
        if abs(spec.params["p"] - spec.params["q"]) < 0.1:
            continue
        Q = np.array([[1, 0.7], [0.1, 1]], dtype=complex)
        R = family_representative(spec)
        A = kron(Q, Q)
        M = A @ R @ inverse(A) @ SWAP
        unit, _ = is_unitary(M)
        d_small = frobenius(d_matrix(R, Q)) < 1e-10
        assert unit == d_small
        assert not d_small


def test_d_matrix_agrees_with_unitarity_both_ways():
    rng = np.random.default_rng(47)
    hits = {True: 0, False: 0}
    for _ in range(40):
        spec = random_family_spec("F1", rng)
        R = family_representative(spec)
        if rng.uniform() < 0.5:
            Q = spec.Q
        else:
            Q = spec.Q + np.array([[0, 0.5], [0, 0]])
        A = kron(Q, Q)
        M = A @ R @ inverse(A) @ SWAP
        unit, _ = is_unitary(M, tol=Tolerance(residual_tol=1e-8))
        d_small = frobenius(d_matrix(R, Q)) < 1e-8
        hits[unit] += 1
        assert unit == d_small
    assert hits[True] > 0 and hits[False] > 0


def test_gram_dichotomy():
    rng = np.random.default_rng(53)
    for _ in range(20):
        spec = random_family_spec("F1", rng)
        g = gram(spec.Q)
        offdiag = g.H - np.diag(np.diag(g.H))
        assert abs(g.z) < 1e-12 * (g.x + g.y)
        assert frobenius(offdiag) < 1e-11 * frobenius(g.H)
        a, b, d = spec.Q[0, 0], spec.Q[0, 1], spec.Q[1, 1]
        assert abs(spec.Q[1, 0] - (-a * np.conj(b) / np.conj(d))) < 1e-12

        free = random_family_spec("F2", rng)
        gf = gram(free.Q)
        assert abs(gf.z) > 0.05
        off = gf.H - np.diag(np.diag(gf.H))
        assert frobenius(off) > 1e-3


def test_case_formula_diagonal_with_exchange_block():
    # normalized form [[1,0,0,0],[0,p,1-pq,0],[0,0,q,0],[0,0,0,1]] against a
    # Gram-diagonal Q: the only off-pattern entry of D is D[1,2] = H[1,1](1 - 1/(pq))
    rng = np.random.default_rng(59)
    for _ in range(10):
        p, q = np.exp(2j * np.pi * rng.uniform(size=2))
        Q = random_family_spec("F1", rng).Q
        H = gram(Q).H
        D = d_matrix(case_matrix("R21", p=p, q=q), Q)
        assert D[1, 2] == pytest.approx(H[1, 1] * (1 - 1 / (p * q)), abs=1e-10)


def test_case_formula_triangular_with_corner():
    # [[1,0,0,k],[0,1,1-q,0],[0,0,q,0],[0,0,0,-q]]: D[1,2] = (1-1/q)(H[1,1]-H[1,2])
    rng = np.random.default_rng(61)
    for _ in range(10):
        q = np.exp(2j * np.pi * rng.uniform())
        k = (rng.normal() + 1j * rng.normal()) / np.sqrt(2)
        Q = random_family_spec("F2", rng).Q
        H = gram(Q).H
        D = d_matrix(case_matrix("R12", q=q, k=k), Q)
        assert D[1, 2] == pytest.approx((1 - 1 / q) * (H[1, 1] - H[1, 2]), abs=1e-9)


def test_case_formula_unipotent():
    # [[1,p,-p,pq],[0,1,0,q],[0,0,1,-q],[0,0,0,1]]: D[0,1] = -p H[0,0]
    rng = np.random.default_rng(67)
    for _ in range(10):
        p, q = (rng.normal(size=2) + 1j * rng.normal(size=2)) / np.sqrt(2)
        Q = random_family_spec("F2", rng).Q
        H = gram(Q).H
        D = d_matrix(case_matrix("R13", p=p, q=q), Q)
        assert D[0, 1] == pytest.approx(-p * H[0, 0], abs=1e-9)


def test_case_matrix_unknown_name():
    with pytest.raises(ValueError):
        case_matrix("R99")


def test_all_inventory_candidates_solve_algebraic_equation():
    rng = np.random.default_rng(71)
    for cand in hietarinta_candidates():
        for _ in range(3):
            M = cand.sample(rng)
            scale = max(1.0, frobenius(M)) ** 3
            assert algebraic_residual(M) < 1e-10 * scale, cand.name


def test_eigenvalue_filter_accepts_unit_spectra():
    assert eigenvalue_filter(SWAP)
    assert eigenvalue_filter(np.diag([1, 1j, -1, -1j]).astype(complex))
    # defective quadruple eigenvalue still counts as flat
    rng = np.random.default_rng(73)
    cand = {c.name: c for c in hietarinta_candidates()}
    assert eigenvalue_filter(cand["R13"].sample(rng))
    assert eigenvalue_filter(cand["R23"].sample(rng))


def test_eigenvalue_filter_rejects_split_spectrum():
    # spectrum {2, 8, 2, -8}: moduli differ by a factor 4
    M = np.array(
        [[1, 0, 0, -3], [0, 5, -3, 0], [0, -3, 5, 0], [-3, 0, 0, -7]], dtype=complex
    )
    assert not eigenvalue_filter(M)


def test_eigenvalue_filter_rejects_small_scale_r11():
    # R11 spectrum {2p^2, 2p^2, 2q^2, -2q^2}: distinct moduli, but all four
    # roots lie within 5e-3 of each other, which an absolute cluster radius
    # would merge into one 4-fold root
    p = np.sqrt(1.28e-3) * np.exp(0.7j)
    q = np.sqrt(8.14e-4) * np.exp(-1.1j)
    M = _r11(p, q)
    roots = eigenvalues(M)
    assert len({complex(z) for z in roots}) == 3
    want = [2 * p * p, 2 * p * p, 2 * q * q, -2 * q * q]
    for w in want:
        assert min(abs(z - w) for z in roots) < 1e-12
    assert not eigenvalue_filter(M)


def test_eigenvalue_filter_raises_on_near_singular():
    with pytest.raises(SingularMatrix):
        eigenvalue_filter(np.diag([1, 1, 1, 1e-12]).astype(complex))


def test_short_elimination_run_eliminates_exactly_one():
    report = run_elimination(samples=40, seed=5)
    assert report["eliminated"] == ["R11"]
    assert report["R11"]["passes"] == 0
    for name in ("R01", "R02", "R03", "R12", "R13", "R14", "R21", "R22", "R23", "R31"):
        assert report[name]["passes"] == report[name]["attempts"], name


def test_random_family_spec_unknown_family():
    with pytest.raises(ValueError):
        random_family_spec("F7", np.random.default_rng(0))
