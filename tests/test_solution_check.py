"""Tests for the one solution check and the verdicts that rest on it."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybe4 import core
from ybe4.classify import classify
from ybe4.cli import main
from ybe4.core import (
    algebraic_residual,
    braided_residual,
    is_algebraic_solution,
    is_braided_solution,
    solution_check,
    swap_matrix,
)
from ybe4.errors import NonFiniteValue, NotASolution, Ybe4Error
from ybe4.families import family_member, random_family_spec
from ybe4.linalg import Tolerance, as_square
from ybe4.matrixio import write_matrix_file

SWAP = swap_matrix(2)
HADA = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [-1, 0, 0, 1]], dtype=complex
) / np.sqrt(2)
FAMILIES = ("F1", "F2", "F3", "F4", "F5")


def test_solution_check_residual_is_the_embedding_route():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert solution_check(M)[0] == braided_residual(M)
    assert solution_check(M, "algebraic")[0] == algebraic_residual(M)


@pytest.mark.parametrize("form", ["braided", "algebraic"])
def test_solution_check_calls_the_public_residual(form, monkeypatch):
    # a wrapper on core's public name sees every solution_check call, as a
    # tracer that patches the module attribute expects
    calls = []
    public = getattr(core, f"{form}_residual")
    monkeypatch.setattr(core, f"{form}_residual", lambda R: calls.append(1) or public(R))
    residual, _ = solution_check(HADA @ SWAP, form)
    assert calls == [1] and residual == public(HADA @ SWAP)


def test_solution_check_bound_is_cubic_above_unit_scale():
    tol = Tolerance(residual_tol=1e-10)
    # a unitary matrix, and anything below unit size, gets residual_tol itself
    assert solution_check(HADA @ SWAP, tol=tol)[1] == 1e-10
    assert solution_check(0.01 * HADA @ SWAP, tol=tol)[1] == 1e-10
    _, bound = solution_check(np.diag([1.0, 7.0, 1.0, 1.0]), "algebraic", tol)
    assert bound == pytest.approx(1e-10 * 343)


def test_solution_check_rejects_unknown_form():
    with pytest.raises(ValueError):
        solution_check(HADA, "braid")


@pytest.mark.parametrize("scale", [1e103, 1e300])
def test_solution_check_overflow_is_typed(scale):
    with pytest.raises(NonFiniteValue):
        solution_check(np.full((4, 4), scale))


def test_non_finite_entries_are_a_typed_value_error():
    for bad in (np.nan, np.inf):
        M = np.eye(4, dtype=complex)
        M[1, 2] = bad
        for call in (as_square, solution_check, classify):
            with pytest.raises(NonFiniteValue) as info:
                call(M)
            assert isinstance(info.value, Ybe4Error)
            assert isinstance(info.value, ValueError)


def test_is_solution_predicates_take_a_tolerance():
    assert is_braided_solution(HADA @ SWAP)
    assert is_algebraic_solution(HADA)
    # the default bound scales with the matrix, so 50 H P still solves it
    assert is_braided_solution(50 * HADA @ SWAP)
    rng = np.random.default_rng(1)
    noise = 1e-8 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert not is_braided_solution(HADA @ SWAP + noise)
    assert is_braided_solution(HADA @ SWAP + noise, Tolerance(residual_tol=1e-6))


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(0, 2**16),
    c=st.floats(1.0, 1e3),
)
def test_scaled_members_pass_the_check(family, seed, c):
    # c M solves the equation whenever M does; the bound grows like c**3
    spec = random_family_spec(family, np.random.default_rng(seed))
    for form in ("braided", "algebraic"):
        residual, bound = solution_check(c * family_member(spec, form), form)
        assert residual <= bound, (form, residual, bound)


def rotated_f3_member(eps):
    """An F3 member times exp(i eps H): unitary, off the equation by ~10 eps."""
    M = family_member(random_family_spec("F3", np.random.default_rng(11)))
    rng = np.random.default_rng(12)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    w, V = np.linalg.eigh((A + A.conj().T) / 2)
    return M @ V @ np.diag(np.exp(1j * eps * w)) @ V.conj().T


def test_rotated_member_gets_one_verdict_everywhere(capsys, tmp_path):
    verdicts = []
    for eps in (1e-11, 1e-10, 1e-9, 1e-8):
        X = rotated_f3_member(eps)
        path = tmp_path / "rotated.json"
        write_matrix_file(str(path), X, {"name": "rotated"})
        code = main(["verify", str(path)])
        report = json.loads(capsys.readouterr().out)
        verify_ok = report["checks"][0]["verdict"] == "pass"
        assert code == (0 if verify_ok else 1)
        try:
            classify(X)
            classify_ok = True
        except NotASolution:
            classify_ok = False
        assert verify_ok == is_braided_solution(X) == classify_ok, eps
        verdicts.append(verify_ok)
    # both verdicts occur, so the agreement is not vacuous
    assert verdicts == [True, False, False, False]


@pytest.mark.parametrize("family", ["F1", "F3", "F4"])
def test_classify_certificate_honours_eq_tol(family):
    rng = np.random.default_rng(5)
    strict = Tolerance(eq_tol=1e-300)
    for _ in range(3):
        M = family_member(random_family_spec(family, rng))
        assert classify(M).family == family
        # the read-off certificate misses its constraints by ~1e-17
        assert classify(M, tol=strict).family is None
