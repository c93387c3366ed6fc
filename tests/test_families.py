"""Tests for family construction, Gram conditions, and the elimination filter."""

from __future__ import annotations

import inspect
from collections import deque

import numpy as np
import pytest

from ybe4 import families
from ybe4.core import algebraic_residual, braided_residual, swap_matrix
from ybe4.classify import _F3_MODULI, _F4_MODULI
from ybe4.errors import (
    ConstraintViolation,
    DimensionError,
    NonConvergence,
    NonFiniteValue,
    SingularMatrix,
)
from ybe4.families import (
    FAMILY_NAMES,
    CandidateRep,
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
INVENTORY = {cand.name: cand for cand in hietarinta_candidates()}


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


GRAM_HELPERS = [gram, lambda Q: d_matrix(SWAP, Q), f2_params]


@pytest.mark.parametrize("Q", [np.eye(3), np.eye(4)[:2], np.ones(2), [[1, 2]]])
@pytest.mark.parametrize("helper", GRAM_HELPERS, ids=["gram", "d_matrix", "f2_params"])
def test_gram_helpers_reject_a_q_that_is_not_2x2(helper, Q):
    with pytest.raises(DimensionError):
        helper(Q)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
@pytest.mark.parametrize("helper", GRAM_HELPERS, ids=["gram", "d_matrix", "f2_params"])
def test_gram_helpers_reject_a_non_finite_q(helper, bad):
    Q = np.array([[1, 0.5], [0, 1]], dtype=complex)
    Q[0, 1] = bad
    with pytest.raises(NonFiniteValue):
        helper(Q)


def test_representatives_have_the_right_shape():
    spec = FamilySpec("F1", np.eye(2), params={"p": 1j, "q": -1, "r": 1})
    assert np.array_equal(family_representative(spec), np.diag([1, 1j, -1, 1]))

    spec = FamilySpec("F3", np.eye(2), params={"p": 2j, "q": 0.5})
    R = family_representative(spec)
    assert R[0, 3] == 2j and R[3, 0] == 0.5 and R[1, 2] == 1 and R[2, 1] == 1

    spec = FamilySpec("F4", np.eye(2))
    R4 = family_representative(spec)
    assert np.allclose(R4 * np.sqrt(2), [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [-1, 0, 0, 1]])

    R5 = family_representative(FamilySpec("F5", np.eye(2)))
    assert np.array_equal(R5, SWAP)
    # each call hands out a fresh array, so writing to one changes no member
    R5[:] = 0
    assert np.array_equal(family_representative(FamilySpec("F5", np.eye(2))), SWAP)
    assert np.array_equal(family_member(FamilySpec("F5", np.eye(2))), np.eye(4))


def test_representative_missing_parameter_is_typed():
    # validate_spec's wording, not a bare KeyError
    with pytest.raises(ConstraintViolation, match="F1 needs parameter p"):
        family_representative(FamilySpec("F1", np.eye(2)))
    with pytest.raises(ConstraintViolation, match="F1 needs parameter r"):
        family_representative(FamilySpec("F1", np.eye(2), params={"p": 1, "q": 1}))
    with pytest.raises(ConstraintViolation, match="F3 needs parameter q"):
        family_representative(FamilySpec("F3", np.eye(2), params={"p": 1}))
    spec = FamilySpec("F3", np.eye(2), params={"p": 1})
    assert "F3 needs parameter q" in validate_spec(spec)


def test_unknown_parameter_is_a_violation():
    spec = FamilySpec("F4", np.eye(2), params={"p": 2})
    assert validate_spec(spec) == ["F4 takes no parameter 'p'"]
    for build in (family_member, family_representative):
        with pytest.raises(ConstraintViolation, match="^F4 takes no parameter 'p'$"):
            build(spec)
    # missing names in the family's order, then unknown ones sorted
    spec = FamilySpec("F1", np.eye(2), params={"s": 1, "q": 1, "a": 1})
    assert validate_spec(spec) == [
        "F1 needs parameter p",
        "F1 needs parameter r",
        "F1 takes no parameter 'a'",
        "F1 takes no parameter 's'",
    ]


def test_f3_needs_nonvanishing_corners():
    spec = FamilySpec("F3", [[0, 1], [1, 0]], params={"p": 1, "q": 1})
    assert "F3 needs nonvanishing corner entries a, d" in validate_spec(spec)


def test_f2_params_forced_by_shear():
    Q = np.array([[1, 1], [0, 1]], dtype=complex)
    p, q = f2_params(Q)
    assert p == pytest.approx(2)
    assert q == pytest.approx(0.5)
    assert p * q == pytest.approx(1, abs=1e-15)


def test_f2_params_require_gram_off_diagonal():
    with pytest.raises(ConstraintViolation):
        f2_params(np.eye(2))


def test_family_spec_errors_are_typed():
    with pytest.raises(ConstraintViolation, match="unknown family"):
        FamilySpec("F9", np.eye(2))
    with pytest.raises(DimensionError, match="2x2"):
        FamilySpec("F1", np.eye(3))
    with pytest.raises(ConstraintViolation, match="unknown form"):
        family_member(FamilySpec("F5", np.eye(2)), form="diagonal")
    with pytest.raises(ConstraintViolation, match="unknown family"):
        random_family_spec("F7", np.random.default_rng(0))
    with pytest.raises(ConstraintViolation, match="R99"):
        case_matrix("R99")
    # still the built-in, for callers that catch it
    assert issubclass(ConstraintViolation, ValueError)


def test_f2_member_honours_the_callers_singular_tol():
    # |z| = 1e-7 of a Gram trace of 2 sits between 1e-9 and the default 1e-6
    Q = np.array([[1, 1e-7], [0, 1]], dtype=complex)
    spec = FamilySpec("F2", Q)
    tol = Tolerance(singular_tol=1e-9)
    assert validate_spec(spec, tol) == []
    M = family_member(spec, tol=tol)
    ok, defect = is_unitary(M)
    assert ok, f"unitarity defect {defect:.2e}"
    assert braided_residual(M) < 1e-12
    # the default tolerance still refuses it, in both entry points
    assert validate_spec(spec) != []
    with pytest.raises(ConstraintViolation):
        family_member(spec)


def _inventory_point(spec):
    """(inventory name, builder arguments, scale) of the spec's base pattern."""
    pa = spec.params
    if spec.family == "F1":
        return "R31", (1.0, pa["p"], pa["q"], pa["r"]), None
    if spec.family == "F2":
        return "R14", (*f2_params(spec.Q), 1.0), None
    if spec.family == "F3":
        return "R14", (pa["p"], pa["q"], 1.0), None
    if spec.family == "F4":
        return "R02", (), np.sqrt(2)
    return "R03", (), None


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_family_patterns_are_inventory_points(family):
    inventory = {cand.name: cand for cand in hietarinta_candidates()}
    rng = np.random.default_rng(83)
    for _ in range(50):
        spec = random_family_spec(family, rng)
        name, args, scale = _inventory_point(spec)
        want = inventory[name].build(*args)
        if scale is not None:
            want = want / scale
        got = family_representative(spec)
        # bitwise: same dtype, and the same bytes, sign bits of zeros included
        assert got.dtype == want.dtype == complex
        assert got.tobytes() == want.tobytes(), name


def test_classify_moduli_are_the_pattern_moduli():
    # F3 at unit p, q is R14 at unit arguments, F4 is R02 / sqrt2
    f3_moduli = np.abs(INVENTORY["R14"].build(1.0, 1.0, 1.0))
    f4_moduli = np.abs(INVENTORY["R02"].build() / np.sqrt(2))
    assert np.array_equal(_F3_MODULI, f3_moduli)
    assert np.array_equal(_F4_MODULI, f4_moduli)
    # the literal patterns they replaced
    assert np.array_equal(f3_moduli, np.fliplr(np.eye(4)))
    assert np.array_equal(
        f4_moduli,
        np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]]) / np.sqrt(2),
    )


def test_candidate_sampling_lists_the_builder_parameters():
    # case_matrix reads the leading parameter off sampling's first key
    # and samples calls the entry builder with a draw's values in that order
    for cand in hietarinta_candidates():
        params = list(inspect.signature(cand.entries).parameters)
        assert list(cand.sampling) == params, cand.name


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


NAN = float("nan")


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("F5", np.eye(2), NAN),
        FamilySpec("F5", np.eye(2), complex(1, NAN)),
        FamilySpec("F4", np.eye(2), complex(1, NAN)),
        FamilySpec("F1", np.eye(2), params={"p": NAN, "q": 1, "r": 1}),
        FamilySpec("F1", np.eye(2), params={"p": 1, "q": 1, "r": complex(NAN, 1)}),
        FamilySpec("F1", np.eye(2), params={"p": np.inf, "q": 1, "r": 1}),
        FamilySpec("F3", np.diag([1.0, 2.0]), params={"p": NAN, "q": 0.25}),
        FamilySpec("F3", np.diag([1.0, 2.0]), params={"p": 4, "q": np.inf}),
        FamilySpec("F2", np.array([[1, 0.5], [0, 1]]), k=np.inf),
    ],
    ids=lambda spec: spec.family,
)
def test_validation_rejects_non_finite_k_and_params(spec):
    # |x - 1| > tol is False for NaN, so a comparison written that way
    # would pass NaN and build an all-NaN member
    assert validate_spec(spec)
    with pytest.raises(ConstraintViolation):
        family_member(spec)


# an anti-diagonal F4 Q: corners tiny and equal within eq_tol * max|Q|
ANTI_F4 = np.array([[1e-12, 1], [1, 0]], dtype=complex)


def _scale_cases():
    rng = np.random.default_rng(21)
    cases = [random_family_spec(f, rng) for f in FAMILY_NAMES for _ in range(4)]
    shear = np.array([[1, 0.5], [0, 1]], dtype=complex)
    cases += [
        FamilySpec("F4", np.diag([1.0, 2.0])),
        FamilySpec("F4", ANTI_F4),
        FamilySpec("F1", shear, params={"p": 1, "q": 1, "r": 1}),
        FamilySpec("F2", np.eye(2)),
        FamilySpec("F3", np.diag([1.0, 2.0]), params={"p": 1, "q": 1}),
        FamilySpec("F3", np.diag([1.0, 2.0]), params={"p": 4, "q": 0.25}),
        FamilySpec("F3", np.diag([1e-8, 1.0]), params={"p": 1e16, "q": 1e-16}),
        FamilySpec("F5", np.diag([1.0, 1e-8])),
    ]
    return cases


@pytest.mark.parametrize("c", [1e-10, 1e-7, 1e-3, 1e3, 1e7, 1e10])
def test_validation_is_scale_free(c):
    """Q and c Q give the same member, so they get the same verdict."""
    for spec in _scale_cases():
        scaled = FamilySpec(spec.family, c * spec.Q, spec.k, spec.params)
        assert bool(validate_spec(scaled)) == bool(validate_spec(spec)), (spec, c)
        if not validate_spec(scaled):
            ok, defect = is_unitary(family_member(scaled))
            assert ok, (spec, c, defect)


def test_validation_of_tiny_q():
    # unequal corners stay unequal at any scale
    tiny_f4 = FamilySpec("F4", 1e-10 * np.diag([1.0, 2.0]))
    assert any("|a| = |d|" in v for v in validate_spec(tiny_f4))
    assert validate_spec(FamilySpec("F4", ANTI_F4)) == []
    # a valid F3 spec stays valid when Q shrinks
    spec = random_family_spec("F3", np.random.default_rng(1))
    assert validate_spec(FamilySpec("F3", 1e-7 * spec.Q, spec.k, spec.params)) == []


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_family_member_inverts_q_once(family, monkeypatch):
    rng = np.random.default_rng(41)
    calls = []

    def counting_inverse(A, *args):
        calls.append(A)
        return inverse(A, *args)

    monkeypatch.setattr(families, "inverse", counting_inverse)
    for _ in range(10):
        spec = random_family_spec(family, rng)
        calls.clear()
        for form in ("braided", "algebraic"):
            M = family_member(spec, form)
            # the member formula with Q inverted on its own
            Qinv = np.linalg.inv(spec.Q)
            want = spec.k * np.kron(spec.Q, spec.Q) @ family_representative(spec)
            want = want @ np.kron(Qinv, Qinv)
            if form == "braided":
                want = want @ SWAP
            assert np.array_equal(M, want)
        assert len(calls) == 2


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


@pytest.mark.parametrize(
    "name, lead, rest",
    [
        ("R12", "p", ("q", "k")),
        ("R13", "k", ("p", "q")),
        ("R21", "k", ("p", "q")),
        ("R22", "k", ("p", "q")),
        ("R23", "k", ("p", "q", "s")),
        ("R31", "k", ("p", "q", "s")),
    ],
)
def test_case_matrix_is_the_builder_with_leading_parameter_one(name, lead, rest):
    build = {cand.name: cand.build for cand in hietarinta_candidates()}[name]
    rng = np.random.default_rng(89)
    values = dict(zip(rest, rng.normal(size=len(rest)) + 1j * rng.normal(size=len(rest))))
    want = build(**{lead: 1.0}, **values)
    assert case_matrix(name, **values).tobytes() == want.tobytes()
    # omitted keywords default to 1
    assert np.array_equal(case_matrix(name), build(**{key: 1.0 for key in (lead, *rest)}))
    # the leading parameter and misspelt keys are refused, not ignored
    for bad in (lead, "x"):
        with pytest.raises(ConstraintViolation, match=f"got {bad}$"):
            case_matrix(name, **{bad: 2.0})


def test_all_inventory_candidates_solve_algebraic_equation():
    rng = np.random.default_rng(71)
    for cand in hietarinta_candidates():
        for _ in range(3):
            M = cand.sample(rng)
            scale = max(1.0, frobenius(M)) ** 3
            assert algebraic_residual(M) < 1e-10 * scale, cand.name


def test_inventory_residuals_vanish_exactly_at_gaussian_integers():
    # with real and imaginary parts in -6..6 every entry, and every term of
    # both residuals, is an integer far below 2^53, so each residual is
    # computed exactly; each residual entry is a polynomial of degree <= 6
    # in the parameters, so a nonzero one survives a random point of the
    # 13-value grid with probability >= 7/13 (Schwartz-Zippel), and 200
    # points all miss it with probability (6/13)^200 < 1e-67
    rng = np.random.default_rng(72)
    for cand in hietarinta_candidates():
        parts = rng.integers(-6, 7, size=(200, len(cand.sampling), 2))
        for point in parts.tolist():
            R = cand.build(*(complex(re, im) for re, im in point))
            assert algebraic_residual(R) == 0.0, (cand.name, point)
            assert braided_residual(R @ SWAP) == 0.0, (cand.name, point)


def test_eigenvalue_filter_accepts_unit_spectra():
    assert eigenvalue_filter(SWAP)
    assert eigenvalue_filter(np.diag([1, 1j, -1, -1j]).astype(complex))
    # defective quadruple eigenvalue still counts as flat
    rng = np.random.default_rng(73)
    cand = {c.name: c for c in hietarinta_candidates()}
    assert eigenvalue_filter(cand["R13"].sample(rng))
    assert eigenvalue_filter(cand["R23"].sample(rng))
    # raw draws are triangular, so LAPACK returns their diagonals exactly;
    # conjugated by S they are not, and plain eigvals scatters the 4-fold
    # root past rel_tol: only the cluster merge keeps these spectra flat
    for name in ("R13", "R23"):
        for _ in range(10):
            S = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
            assert eigenvalue_filter(S @ cand[name].sample(rng) @ np.linalg.inv(S)), name


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
    M = INVENTORY["R11"].build(p, q)
    roots = eigenvalues(M)
    assert len({complex(z) for z in roots}) == 3
    want = [2 * p * p, 2 * p * p, 2 * q * q, -2 * q * q]
    for w in want:
        assert min(abs(z - w) for z in roots) < 1e-12
    assert not eigenvalue_filter(M)


@pytest.mark.parametrize("c", [1e-150, 1e-80, 1e-3, 1e3, 1e80, 1e150])
def test_eigenvalue_filter_verdict_is_scale_free(c):
    # the moduli ratio is scale-free, and the root check must stay finite
    # and sharp: unscaled, char_poly overflowed past max|A| ~ 1e77 and its
    # coefficients underflowed to 0 near 1e-150 (Tier-1 turns either
    # RuntimeWarning into an error)
    rng = np.random.default_rng(41)
    verdicts = set()
    for cand in hietarinta_candidates():
        for _ in range(5):
            M = cand.sample(rng)
            want = eigenvalue_filter(M)
            assert eigenvalue_filter(c * M) == want, (cand.name, c)
            verdicts.add(want)
    assert verdicts == {True, False}


def test_eigenvalue_filter_raises_on_near_singular():
    with pytest.raises(SingularMatrix):
        eigenvalue_filter(np.diag([1, 1, 1, 1e-12]).astype(complex))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_eigenvalue_filter_rejects_bad_rel_tol(bad):
    # on a flat spectrum a NaN or negative bound would read "not flat" and
    # an infinite one "flat", whatever the matrix
    with pytest.raises(ConstraintViolation, match="rel_tol"):
        eigenvalue_filter(SWAP, bad)


@pytest.mark.parametrize("bad", [0, -3, 2.5, "20", None])
def test_elimination_rejects_bad_samples(bad):
    with pytest.raises(ConstraintViolation, match="samples must be an integer >= 1"):
        run_elimination(samples=bad)


def test_elimination_takes_integer_like_samples():
    assert run_elimination(np.int64(3), seed=2) == run_elimination(3, seed=2)


@pytest.mark.parametrize("bad", [-1, -(2**70), 1.5, "3", None])
def test_elimination_rejects_bad_seed(bad):
    with pytest.raises(ConstraintViolation, match="seed must be an integer >= 0"):
        run_elimination(samples=1, seed=bad)


def test_elimination_takes_integer_like_seed():
    assert run_elimination(3, seed=np.int64(2)) == run_elimination(3, seed=2)


def test_short_elimination_run_eliminates_exactly_one():
    report = run_elimination(samples=40, seed=5)
    assert report["eliminated"] == ["R11"]
    assert report["R11"]["passes"] == 0
    for name in ("R01", "R02", "R03", "R12", "R13", "R14", "R21", "R22", "R23", "R31"):
        assert report[name]["passes"] == report[name]["attempts"], name


def test_crand_draws_are_unchanged():
    # two normals and one division by sqrt(2) per draw, bit for bit
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(200):
        z = families._crand(rng)
        assert type(z) is complex
        assert z == complex(ref.normal() + 1j * ref.normal()) / np.sqrt(2)
    assert rng.bit_generator.state == ref.bit_generator.state


def _per_parameter_draw(kinds, rng):
    """One draw of the given kinds, one _unit or _crand call per parameter."""
    return [families._unit(rng) if k == "unit" else families._crand(rng) for k in kinds]


@pytest.mark.parametrize("n", [1, 2, 7, 1024])
@pytest.mark.parametrize(
    "cand", [c for c in hietarinta_candidates() if c.sampling], ids=lambda c: c.name
)
def test_array_draws_are_the_per_parameter_stream(cand, n):
    # bit for bit the values, and the generator state, of n successive
    # rounds of per-parameter draws
    kinds = tuple(cand.sampling.values())
    for seed in range(3):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = families._draw_params(kinds, n, rng)
        want = [_per_parameter_draw(kinds, ref) for _ in range(n)]
        assert all(type(z) is complex for row in rows for z in row)
        assert np.array(rows).tobytes() == np.array(want).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        # samples builds each row with the candidate's own builder
        rng = np.random.default_rng(seed)
        got = np.array(cand.samples(rng, n))
        built = [cand.build(**dict(zip(cand.sampling, row))) for row in want]
        assert got.tobytes() == np.array(built).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        if n == 1:
            rng = np.random.default_rng(seed)
            assert cand.sample(rng).tobytes() == built[0].tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "kinds", [("unit", "generic", "unit"), ("generic", "unit", "unit", "generic")]
)
def test_array_draws_merge_runs_across_draws(kinds):
    # a draw's last kind is the next draw's first: one call spans both
    for n in (1, 2, 7):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        rows = families._draw_params(kinds, n, rng)
        want = [_per_parameter_draw(kinds, ref) for _ in range(n)]
        assert np.array(rows).tobytes() == np.array(want).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


RNG = np.random.default_rng(0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Tolerance(eq_tol="a"), "eq_tol must be a real number, got str"),
        (lambda: Tolerance(residual_tol=1j), "residual_tol must be a real number"),
        (lambda: eigenvalue_filter(SWAP, "a"), "rel_tol must be a real number"),
        (lambda: run_elimination(rel_tol="a"), "rel_tol must be a real number"),
        (lambda: run_elimination(rel_tol=10**400), "rel_tol must be finite and > 0"),
        (lambda: INVENTORY["R11"].samples(RNG, "a"), "n must be an integer >= 0"),
        (lambda: INVENTORY["R11"].samples(RNG, -1), "n must be an integer >= 0"),
        (lambda: INVENTORY["R11"].samples(RNG, 2.5), "n must be an integer >= 0"),
        (lambda: INVENTORY["R11"].sample("rng"), "rng must be a numpy.random.Generator"),
        (lambda: INVENTORY["R01"].samples(None, 2), "rng must be a numpy.random.Generator"),
        (lambda: random_family_spec("F1", "rng"), "rng must be a numpy.random.Generator"),
        (lambda: validate_spec("x"), "expected a FamilySpec, got str"),
        (lambda: family_member("x"), "expected a FamilySpec, got str"),
        (lambda: family_representative(None), "expected a FamilySpec, got NoneType"),
    ],
)
def test_bad_scalar_parameters_are_constraint_violations(call, message):
    with pytest.raises(ConstraintViolation, match=message):
        call()


def test_zero_samples_is_an_empty_stack():
    for cand in hietarinta_candidates():
        rng, ref = np.random.default_rng(1), np.random.default_rng(1)
        got = cand.samples(rng, 0)
        assert got.shape == (0, 4, 4) and got.dtype == complex
        assert rng.bit_generator.state == ref.bit_generator.state


def test_random_family_spec_unknown_family():
    with pytest.raises(ValueError):
        random_family_spec("F7", np.random.default_rng(0))


def _sequential_elimination(samples, seed, rel_tol=1e-6):
    """Reference: the first-in-first-out draw order, one eigenvalue_filter
    call per draw, each draw's parameters drawn one at a time.  Each
    candidate's draws queue up in inventory order, and a degenerate draw
    queues one redraw at the back."""
    rng = np.random.default_rng(seed)
    inventory = families.hietarinta_candidates()
    attempts = [samples if cand.sampling else 1 for cand in inventory]
    passes = [0] * len(inventory)
    redraws = [0] * len(inventory)
    drawn = [0] * len(inventory)
    queue = deque(i for i, n in enumerate(attempts) for _ in range(n))
    while queue:
        i = queue.popleft()
        cand = inventory[i]
        params = _per_parameter_draw(cand.sampling.values(), rng)
        M = cand.build(**dict(zip(cand.sampling, params)))
        try:
            passes[i] += eigenvalue_filter(M, rel_tol)
        except SingularMatrix:
            redraws[i] += 1
            queue.append(i)
        except NonConvergence as exc:
            raise NonConvergence(
                f"{inventory[i].name} draw {drawn[i]}: root residual "
                f"{exc.residual:.3e} exceeds {exc.bound:.3e}",
                root=exc.root,
                residual=exc.residual,
                bound=exc.bound,
                index=drawn[i],
            ) from exc
        drawn[i] += 1
    report = {
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


@pytest.fixture
def generators(monkeypatch):
    """Every generator np.random.default_rng makes during the test, in order."""
    made = []
    default_rng = np.random.default_rng

    def recording(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


def assert_matches_sequential(samples, seed, generators, rel_tol=1e-6):
    want = _sequential_elimination(samples, seed, rel_tol)
    got = run_elimination(samples, seed, rel_tol)
    assert got == want, (samples, seed, rel_tol)
    # both consumed the same draws: the generators end in the same state
    ref, batched = generators[-2:]
    assert batched.bit_generator.state == ref.bit_generator.state
    return got


@pytest.mark.parametrize(
    "samples, seeds", [(1, range(30)), (20, range(30)), (1000, range(1, 4))]
)
def test_stacked_elimination_matches_per_draw_loop(samples, seeds, generators):
    for seed in seeds:
        assert_matches_sequential(samples, seed, generators)


def _flaky(p):
    # |p| < 0.4 (about 15 % of draws) spans 12 orders of modulus: a redraw;
    # otherwise the draw passes unless |p| > 1.2
    if abs(p) < 0.4:
        return [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1e-12]
    return [1, 0, 0, 0, 0, p / abs(p), 0, 0, 0, 0, 1, 0, 0, 0, 0, 1 if abs(p) < 1.2 else 2]


FLAKY = CandidateRep("RS", {"p": "generic"}, _flaky)


def _with_flaky(inventory, position):
    """R01, R11 and R13 with the flaky candidate RS at the given position."""
    rest = [inventory["R01"], inventory["R11"], inventory["R13"]]
    rest.insert({"first": 0, "middle": 1, "last": 3}[position], FLAKY)
    return tuple(rest)


# "samples+1" ends the first pass exactly on a boundary between candidates
@pytest.mark.parametrize("stack", [1, 7, "samples+1", 1024])
@pytest.mark.parametrize("samples", [20, 50])
@pytest.mark.parametrize("rel_tol", [1e-6, 2.0])
def test_stacked_elimination_redraws_like_per_draw_loop(
    monkeypatch, generators, stack, samples, rel_tol
):
    inventory = {c.name: c for c in hietarinta_candidates()}
    cap = samples + 1 if stack == "samples+1" else stack
    monkeypatch.setattr(families, "_FILTER_STACK", cap)
    for position in ("first", "middle", "last"):
        candidates = _with_flaky(inventory, position)
        monkeypatch.setattr(families, "hietarinta_candidates", lambda: candidates)
        for seed in range(5):
            got = assert_matches_sequential(samples, seed, generators, rel_tol)
            assert got["RS"]["redraws"] > 0, (position, seed)
            if rel_tol < 1:
                assert 0 < got["RS"]["passes"] < samples
                assert got["eliminated"] == ["R11"]
            else:
                # a spread below 2 always passes, but a redraw still never counts
                assert got["RS"]["passes"] == samples


@pytest.mark.parametrize("samples, calls", [(20, 1), (1000, 8)])
def test_elimination_checks_all_candidates_in_one_pass(monkeypatch, samples, calls):
    # 3 + 8 * samples draws and no redraws: ceil(163 / 1024) = 1 stacked
    # call, ceil(8003 / 1024) = 8
    sizes = []
    verdicts = families._filter_verdicts

    def counting(M, rel_tol):
        sizes.append(len(M))
        return verdicts(M, rel_tol)

    monkeypatch.setattr(families, "_filter_verdicts", counting)
    report = run_elimination(samples=samples)
    assert len(sizes) == calls
    assert sum(sizes) == 3 + 8 * samples
    assert all(report[c.name]["redraws"] == 0 for c in hietarinta_candidates())


def _draws(samples, seed):
    """Every (candidate name, matrix) the reference draws, in order."""
    inventory = families.hietarinta_candidates()
    seen = []

    def recorded(cand):
        def entries(*args, **params):
            seen.append((cand.name, cand.build(*args, **params)))
            return cand.entries(*args, **params)

        return CandidateRep(cand.name, cand.sampling, entries)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            families, "hietarinta_candidates", lambda: tuple(map(recorded, inventory))
        )
        _sequential_elimination(samples, seed)
    return seen


def _poison(monkeypatch, samples, seed, name, draw):
    """Make families.eigenvalues fail, by value, on the given draw of the
    named candidate, with a root, residual and bound read off that matrix."""
    P = [M for key, M in _draws(samples, seed) if key == name][draw]

    def poisoned(A):
        hit = (A == P).all(axis=(-2, -1)).reshape(-1)
        if hit.any():
            row = int(np.argmax(hit))
            raise NonConvergence(
                f"poisoned row {row}",
                root=complex(P[0, 0] + P[3, 3]),
                residual=float(np.abs(P).sum()),
                bound=float(np.abs(P).max()),
                index=row if A.ndim > 2 else None,
            )
        return eigenvalues(A)

    monkeypatch.setattr(families, "eigenvalues", poisoned)
    return P


def assert_fails_like_reference(samples, seed, name, draw):
    with pytest.raises(NonConvergence) as ref:
        _sequential_elimination(samples, seed)
    with pytest.raises(NonConvergence) as got:
        run_elimination(samples, seed)
    want, exc = ref.value, got.value
    assert str(exc).startswith(f"{name} draw {draw}: root residual")
    assert str(exc) == str(want)
    assert exc.index == want.index == draw
    assert (exc.root, exc.residual, exc.bound) == (want.root, want.residual, want.bound)
    return exc


# fused rows of run_elimination(samples=20): R01, R02, R03, then 20 each of
# R11 (rows 3-22), R12, R13 (43-62), ..., R31 (143-162)
@pytest.mark.parametrize(
    "row, name, draw", [(0, "R01", 0), (2, "R03", 0), (45, "R13", 2), (162, "R31", 19)]
)
def test_nonconvergence_names_candidate_and_draw(monkeypatch, row, name, draw):
    P = _poison(monkeypatch, 20, 0, name, draw)
    exc = assert_fails_like_reference(20, 0, name, draw)
    assert "row" not in str(exc)
    assert exc.residual == np.abs(P).sum()
    assert exc.__cause__.index == row


def test_nonconvergence_draw_counts_redraws(monkeypatch):
    # RS's redraws queue behind R13's draws; each of them, and every R13
    # draw before them, is really taken and named by its place in its stream
    inventory = {c.name: c for c in hietarinta_candidates()}
    monkeypatch.setattr(
        families, "hietarinta_candidates", lambda: (FLAKY, inventory["R13"])
    )
    for seed in (0, 1):
        extra = _sequential_elimination(20, seed)["RS"]["redraws"]
        assert extra > 0
        for name, draw in [("RS", 20), ("RS", 19 + extra), ("R13", 1), ("R13", 19)]:
            _poison(monkeypatch, 20, seed, name, draw)
            for stack in (1, 7, 21, 1024):
                monkeypatch.setattr(families, "_FILTER_STACK", stack)
                assert_fails_like_reference(20, seed, name, draw)
            monkeypatch.setattr(families, "eigenvalues", eigenvalues)


# Closed-form spectra of the inventory: R02, R03, R11 and R14 by hand, the
# upper-triangular rest by their diagonals.
SPECTRA = {
    "R01": lambda: [1, -1, -1, 1],
    "R02": lambda: [np.sqrt(2), -np.sqrt(2), 1 + 1j, 1 - 1j],
    "R03": lambda: [1, 1, 1, -1],
    "R11": lambda p, q: [2 * p * p, 2 * p * p, 2 * q * q, -2 * q * q],
    "R12": lambda p, q, k: [p, p, q, -q],
    "R13": lambda k, p, q: [k * k] * 4,
    "R14": lambda p, q, k: [k, -k, np.sqrt(p * q), -np.sqrt(p * q)],
    "R21": lambda k, p, q: [k * k, k * p, k * q, k * k],
    "R22": lambda k, p, q: [k * k, k * p, k * q, -p * q],
    "R23": lambda k, p, q, s: [k] * 4,
    "R31": lambda k, p, q, s: [k, p, q, s],
}


def one_circle(name, params, rel_tol=1e-6):
    """The filter's predicate on the closed-form spectrum: True, False, or
    None for a draw whose spread lies within a factor 10 of rel_tol, where
    rounding may tip either way."""
    mods = np.abs(SPECTRA[name](**params))
    spread = (mods.max() - mods.min()) / mods.max()
    if rel_tol / 10 <= spread <= 10 * rel_tol:
        return None
    return bool(spread <= rel_tol)


@pytest.mark.parametrize("conjugate", [False, True])
def test_filter_matches_closed_form_spectra(monkeypatch, conjugate):
    inventory = hietarinta_candidates()
    # R11 at |p| = |q| = 1 covers the pass side of the one candidate that fails
    unit_r11 = CandidateRep("R11", {"p": "unit", "q": "unit"}, _r11)
    rng_s = np.random.default_rng(29)
    draws = []

    def recorded(cand, key):
        def entries(*args):
            M = cand.build(*args)
            if conjugate:
                S = rng_s.normal(size=(4, 4)) + 1j * rng_s.normal(size=(4, 4))
                S += 3.0 * np.eye(4)
                M = S @ M @ np.linalg.inv(S)
            draws.append((key, cand.name, dict(zip(cand.sampling, args)), M))
            return M.ravel().tolist()

        return CandidateRep(key, cand.sampling, entries)

    monkeypatch.setattr(
        families,
        "hietarinta_candidates",
        lambda: tuple(recorded(c, c.name) for c in inventory)
        + (recorded(unit_r11, "R11u"),),
    )
    report = run_elimination(samples=60, seed=3)
    assert report["R11"]["passes"] == 0
    assert report["R11u"]["passes"] == report["R11u"]["attempts"] == 60
    for key, row in report.items():
        if key == "eliminated":
            continue
        verdicts = [one_circle(name, params) for k, name, params, _ in draws if k == key]
        assert len(verdicts) == row["attempts"] + row["redraws"]
        sure = [v for v in verdicts if v is not None]
        assert sum(sure) <= row["passes"] <= sum(sure) + verdicts.count(None), key
    for _, name, params, M in draws:
        want = one_circle(name, params)
        if want is not None:
            assert eigenvalue_filter(M) == want, (name, params)


def test_filter_passes_r11_on_equal_moduli():
    # R11 passes exactly on |p| = |q|: the spectrum is {2p^2, 2p^2, 2q^2, -2q^2}
    p, q = 0.8 * np.exp(0.4j), 0.8 * np.exp(-1.3j)
    M = INVENTORY["R11"].build(p, q)
    S = np.array([[2, 1j, 0, 0], [0, 1, 0.5, 0], [0, 0, 1, -1], [1, 0, 0, 1]])
    assert eigenvalue_filter(M)
    assert eigenvalue_filter(S @ M @ np.linalg.inv(S))
    assert not eigenvalue_filter(INVENTORY["R11"].build(p, 1.01 * q))
