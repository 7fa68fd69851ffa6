"""Shift-invert Lanczos against dense oracles and its error contract."""

import hashlib
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from femupdate import (
    MaxIterationsError,
    NumericalError,
    SparseSymMatrix,
    SubspaceExhaustedError,
    assemble_parametric,
    benchmarks,
    lanczos_smallest,
)
from femupdate import lanczos
from femupdate.lanczos import LanczosResult, descending_eigh
from femupdate.sparse import cholesky_factorize
import scipy.linalg as sla

from conftest import random_spd_pencil


def identity(n):
    return SparseSymMatrix.from_full(np.eye(n))


def diagonal(values):
    return SparseSymMatrix.from_full(np.diag(values))


def test_diagonal_pencil_known_eigenvalues():
    k = diagonal([1.0, 2.0, 3.0])
    m = identity(3)
    result = lanczos_smallest(k, m, s=2, tol=1e-10)
    assert np.allclose(result.eigenvalues, [1.0, 2.0], atol=1e-9)
    assert result.eigenvalues[0] <= result.eigenvalues[1]


def test_identity_pencil_repeated_eigenvalue():
    # K = M: every eigenvalue is 1; the Krylov space collapses after one
    # vector and the iteration must restart to find the second pair.
    k = identity(6)
    result = lanczos_smallest(k, k, s=2, tol=1e-8)
    assert np.allclose(result.eigenvalues, [1.0, 1.0], atol=1e-10)


@pytest.mark.xfail(strict=True, reason="one start vector finds a double eigenvalue "
                   "once (ROADMAP item 5)")
def test_both_copies_of_a_double_smallest_eigenvalue_come_back():
    # K = Q diag(λ) Qᵀ, M = I, λ uniform on [1, 100] with λ₂ = λ₁ exactly
    n = 200
    for seed in range(5):
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.uniform(1.0, 100.0, n))
        lam[1] = lam[0]
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        k = SparseSymMatrix.from_full((q * lam) @ q.T)
        result = lanczos_smallest(k, identity(n), s=3)
        assert np.allclose(result.eigenvalues[:2], lam[0], rtol=1e-6, atol=0), seed


def test_matches_dense_oracle_random_pencil():
    rng = np.random.default_rng(31)
    k, m = random_spd_pencil(120, rng)
    result = lanczos_smallest(k, m, s=5, tol=1e-8, seed=3)
    oracle = sla.eigh(k.to_dense(), m.to_dense(), eigvals_only=True,
                      subset_by_index=[0, 4])
    assert np.all(np.abs(result.eigenvalues - oracle) <= 1e-6 * np.abs(oracle))


def _pencil_with_triples(d, rng):
    """Dense SPD pencil K = B W Bᵀ, M = B Bᵀ of size 3 d: its eigenvalues
    are W's, d distinct values each repeated exactly three times."""
    q, _ = np.linalg.qr(rng.standard_normal((3 * d, 3 * d)))
    b = q * np.sqrt(rng.uniform(0.5, 2.0, 3 * d))
    w = np.repeat(rng.uniform(1.0, 10.0, d), 3)
    return SparseSymMatrix.from_full((b * w) @ b.T), SparseSymMatrix.from_full(b @ b.T)


@given(
    d=st.integers(1, 10),
    s=st.integers(1, 12),
    triples=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_vectors_are_m_orthonormal_with_small_residuals(d, s, triples, seed):
    # the gradient divides by no v_i^T M v_i: it relies on this. With
    # triples and s > d one Krylov space holds too few distinct
    # eigenvalues, so such draws mostly break down and restart
    rng = np.random.default_rng(seed)
    k, m = _pencil_with_triples(d, rng) if triples else random_spd_pencil(3 * d, rng)
    s = min(s, 3 * d)
    tol = 1e-7
    result = lanczos_smallest(k, m, s=s, tol=tol, seed=seed)
    v = result.vectors
    mv = m.matvec(v)
    assert np.abs(v.T @ mv - np.eye(s)).max() <= 1e-12
    for i in range(s):
        r = k.matvec(v[:, i]) - result.eigenvalues[i] * mv[:, i]
        # the stopping rule bounds the shift-inverted residual by tol * mu
        assert np.linalg.norm(r) <= 10 * tol * result.eigenvalues[i] * np.linalg.norm(
            mv[:, i]
        ) + 1e-9


def test_eigenvalues_sorted_ascending():
    rng = np.random.default_rng(33)
    k, m = random_spd_pencil(70, rng)
    result = lanczos_smallest(k, m, s=6, tol=1e-8)
    assert np.all(np.diff(result.eigenvalues) >= 0.0)


def test_seed_reproducibility():
    rng = np.random.default_rng(34)
    k, m = random_spd_pencil(60, rng)
    a = lanczos_smallest(k, m, s=3, tol=1e-8, seed=7)
    b = lanczos_smallest(k, m, s=3, tol=1e-8, seed=7)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.vectors, b.vectors)
    c = lanczos_smallest(k, m, s=3, tol=1e-8, seed=8)
    assert np.allclose(c.eigenvalues, a.eigenvalues, rtol=1e-7)


def test_overflow_is_a_numerical_error_without_a_warning():
    # K ~ 1e-300 puts K^{-1} M u at ~1e300 and its M-norm past the largest
    # double: the run stops at the first non-finite alpha or beta, warning
    # of nothing (pytest turns warnings into errors)
    k, m = random_spd_pencil(30, np.random.default_rng(4))
    tiny = SparseSymMatrix(k.pattern, 1e-300 * k.data)
    with pytest.raises(NumericalError, match=r"^Lanczos step \d+ left the floating-point range"):
        lanczos_smallest(tiny, m, s=3)


def test_basis_cap_raises_max_iterations():
    # no residual bound reaches tol 0 before the cap max(4 s + 20, 100)
    rng = np.random.default_rng(36)
    k, m = random_spd_pencil(200, rng)
    with pytest.raises(MaxIterationsError, match=r"basis cap 100 reached .* \(tol 0\)"):
        lanczos_smallest(k, m, s=5, tol=0.0)


def test_a_krylov_space_with_too_few_pairs_is_exhausted():
    # K^{-1} M has rank 2, so a restart after two steps finds no new direction
    m = SparseSymMatrix.from_full(np.diag([1.0, 2.0, 0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(SubspaceExhaustedError, match="exhausted with 2 of 3 pairs available"):
        lanczos_smallest(identity(6), m, s=3)


def test_validates_block_count():
    k = identity(4)
    with pytest.raises(ValueError):
        lanczos_smallest(k, k, s=5)
    with pytest.raises(ValueError):
        lanczos_smallest(k, k, s=0)


def test_tridiagonal_projection_consistency():
    """T stores the projected operator: T = Uᵀ M K⁻¹ M U."""
    rng = np.random.default_rng(37)
    k, m = random_spd_pencil(40, rng)
    result = lanczos_smallest(k, m, s=3, tol=1e-9)
    u = result.basis
    mu_ = m.matvec(u)
    projected = mu_.T @ cholesky_factorize(k).solve(mu_)
    assert np.abs(projected - result.tridiagonal).max() <= 1e-8 * max(
        1.0, np.abs(result.tridiagonal).max()
    )


def assert_solves_are_fresh_back_substitutions(result, k, m):
    """The recorded solves equal K⁻¹ M U solved again from the basis."""
    fresh = cholesky_factorize(k).solve(m.matvec(result.basis))
    assert result.solves.shape == result.basis.shape
    assert np.abs(result.solves - fresh).max() <= 1e-12 * np.abs(fresh).max()


def test_recorded_solves_match_fresh_back_substitution():
    rng = np.random.default_rng(38)
    k, m = random_spd_pencil(80, rng)
    result = lanczos_smallest(k, m, s=4, tol=1e-9, seed=2)
    assert result.basis.flags.f_contiguous
    assert_solves_are_fresh_back_substitutions(result, k, m)


def test_basis_does_not_keep_the_workspace_alive():
    rng = np.random.default_rng(39)
    k, m = random_spd_pencil(80, rng)
    result = lanczos_smallest(k, m, s=2, tol=1e-9)
    assert result.m < 80  # the workspace has more columns than were used
    assert result.basis.base is None and result.basis.flags.f_contiguous
    assert result.tridiagonal.base is None


def test_recorded_solves_survive_breakdown_restarts():
    # two distinct eigenvalues, each three times: the Krylov space of one
    # start vector breaks down after two steps, short of s = 4 pairs
    k = diagonal([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    m = identity(6)
    result = lanczos_smallest(k, m, s=4, tol=1e-10)
    assert np.allclose(result.eigenvalues, [1.0, 1.0, 2.0, 2.0], atol=1e-9)
    assert np.any(np.diag(result.tridiagonal, 1) == 0.0)  # a restart happened
    assert_solves_are_fresh_back_substitutions(result, k, m)


@given(m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), repeat=st.booleans())
def test_descending_eigh_matches_sorted_eigvalsh(m, seed, repeat):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    a = a + a.T
    if repeat and m > 2:  # an exactly repeated eigenvalue
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        w = rng.standard_normal(m)
        w[1] = w[0]
        a = (q * w) @ q.T
    mu, vec = descending_eigh(a)
    assert np.allclose(mu, np.sort(np.linalg.eigvalsh(a))[::-1], atol=1e-12 * m)
    assert np.all(np.diff(mu) <= 0.0)
    assert np.allclose(a @ vec, vec * mu, atol=1e-10 * m)
    assert np.allclose(vec.T @ vec, np.eye(m), atol=1e-12 * m)


def lent_workspace(matrix):
    """The array the matrix's pattern lends next: a loan of no columns
    takes whatever the pattern holds, and gives it back."""
    with matrix.pattern.workspace(0) as work:
        return work


def test_a_second_run_leaves_the_first_result_alone():
    rng = np.random.default_rng(41)
    k, m = random_spd_pencil(80, rng)
    first = lanczos_smallest(k, m, s=3, tol=1e-9, seed=1)
    kept = {name: getattr(first, name).copy()
            for name in ("basis", "solves", "vectors", "tridiagonal")}
    doubled = SparseSymMatrix(k.pattern, 2.0 * k.data)  # same pattern
    lanczos_smallest(doubled, m, s=5, tol=1e-9, seed=2)
    for name, before in kept.items():
        assert np.array_equal(getattr(first, name), before), name


def test_runs_on_one_pattern_borrow_one_workspace_and_grow_it():
    rng = np.random.default_rng(42)
    k, m = random_spd_pencil(200, rng)
    lanczos_smallest(k, m, s=2, tol=1e-8)  # cap max(4 s + 20, 100)
    held = lent_workspace(k)
    assert held.shape == (200, 3 * 100) and held.flags.f_contiguous
    lanczos_smallest(SparseSymMatrix(k.pattern, 3.0 * k.data), m, s=5, tol=1e-8)
    assert lent_workspace(k) is held
    lanczos_smallest(k, m, s=30, tol=1e-6)  # cap 4 s + 20
    grown = lent_workspace(k)
    assert grown.shape == (200, 3 * 140)
    lanczos_smallest(k, m, s=2, tol=1e-8)  # fits: no new array
    assert lent_workspace(k) is grown


def test_errors_give_the_workspace_back(monkeypatch):
    rng = np.random.default_rng(36)
    k, m = random_spd_pencil(200, rng)
    lanczos_smallest(k, m, s=5, tol=1e-8)
    held = lent_workspace(k)
    with pytest.raises(MaxIterationsError):
        lanczos_smallest(k, m, s=5, tol=0.0)  # fails at the cap, 100
    assert lent_workspace(k) is held
    matvec, calls = m.matvec, []

    def interrupted(x):  # fails in the middle of the loop
        calls.append(x)
        if len(calls) > 3:
            raise KeyboardInterrupt
        return matvec(x)

    monkeypatch.setattr(m, "matvec", interrupted)
    with pytest.raises(KeyboardInterrupt):
        lanczos_smallest(k, m, s=5, tol=1e-8)
    assert lent_workspace(k) is held


def test_a_run_during_a_loan_uses_its_own_array():
    rng = np.random.default_rng(43)
    k, m = random_spd_pencil(80, rng)
    alone = lanczos_smallest(k, m, s=3, tol=1e-9, seed=4)
    with k.pattern.workspace(0) as lent:
        lent[:] = np.nan
        nested = lanczos_smallest(k, m, s=3, tol=1e-9, seed=4)
        assert np.isnan(lent).all()
    assert np.array_equal(nested.basis, alone.basis)


def test_a_run_of_m_steps_writes_only_the_first_3m_columns():
    # U, M U and the solves are interleaved, so the pages a run touches are
    # one contiguous run of columns however large the basis cap
    rng = np.random.default_rng(46)
    k, m = random_spd_pencil(200, rng)
    lanczos_smallest(k, m, s=2, tol=1e-8)  # default cap 100
    with k.pattern.workspace(0) as held:
        held[:] = np.nan
    result = lanczos_smallest(k, m, s=2, tol=1e-8)
    assert lent_workspace(k) is held and result.m < 100
    used = 3 * result.m
    assert np.isfinite(held[:, :used]).all()
    assert np.isnan(held[:, used:]).all()


def test_fresh_and_reused_workspaces_give_the_same_bits():
    rng = np.random.default_rng(44)
    k, m = random_spd_pencil(90, rng)
    fresh = lanczos_smallest(k, m, s=4, tol=1e-9, seed=9)  # the pattern's first run
    held = lent_workspace(k)
    lanczos_smallest(k, m, s=6, tol=1e-10, seed=3)  # leaves other values behind
    reused = lanczos_smallest(k, m, s=4, tol=1e-9, seed=9)
    assert lent_workspace(k) is held
    for name in ("eigenvalues", "vectors", "basis", "tridiagonal", "solves"):
        assert np.array_equal(getattr(fresh, name), getattr(reused, name)), name


def test_threads_sharing_a_pattern_never_share_a_workspace():
    rng = np.random.default_rng(45)
    k, m = random_spd_pencil(120, rng)
    seeds = list(range(6))
    expected = {seed: lanczos_smallest(k, m, s=3, tol=1e-9, seed=seed).basis for seed in seeds}
    errors = []

    def work(offset):
        for i in range(12):
            seed = seeds[(i + offset) % len(seeds)]
            try:  # a clobbered basis can also fail to converge
                basis = lanczos_smallest(k, m, s=3, tol=1e-9, seed=seed).basis
            except Exception as exc:
                errors.append(repr(exc))
            else:
                want = expected[seed]
                if basis.shape != want.shape or np.abs(basis - want).max() > 1e-10:
                    errors.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def _separated_pencil(n, rng):
    """Dense SPD pencil K = B W Bᵀ, M = B Bᵀ whose eigenvalues, W's,
    differ pairwise by at least 0.2."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = q * np.sqrt(rng.uniform(0.5, 2.0, n))
    w = 1.0 + np.cumsum(rng.uniform(0.2, 1.0, n))
    return SparseSymMatrix.from_full((b * w) @ b.T), SparseSymMatrix.from_full(b @ b.T)


@given(n=st.integers(20, 120), s=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_gram_schmidt_twice_keeps_the_lanczos_relations(n, s, seed):
    rng = np.random.default_rng(seed)
    k, m = _separated_pencil(n, rng)
    tol = 1e-8
    result = lanczos_smallest(k, m, s=s, tol=tol, seed=seed)
    oracle = sla.eigh(k.to_dense(), m.to_dense(), eigvals_only=True,
                      subset_by_index=[0, s - 1])
    assert np.all(np.abs(result.eigenvalues - oracle) <= (tol + 1e-12) * oracle)
    u = result.basis
    mu_ = m.matvec(u)
    assert np.abs(u.T @ mu_ - np.eye(result.m)).max() <= 1e-12
    fresh = np.linalg.solve(k.to_dense(), mu_)
    assert np.abs(result.solves - fresh).max() <= 1e-10 * np.abs(fresh).max()
    projected = mu_.T @ fresh
    assert np.abs(result.tridiagonal - projected).max() <= 1e-10 * np.abs(projected).max()


@pytest.mark.parametrize("c", [1e-30, 1.0, 1e30])
def test_restarts_do_not_depend_on_the_units_of_m(c):
    # K v = lambda c v: eigenvalues 1/c and 2/c, three times each; one
    # start vector's Krylov space holds two, so reaching s = 4 restarts
    k = diagonal([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    m = diagonal(np.full(6, c))
    result = lanczos_smallest(k, m, s=4, tol=1e-10)
    assert np.allclose(result.eigenvalues * c, [1.0, 1.0, 2.0, 2.0], rtol=1e-9)


LANCZOS_BITS = [  # name, refine, s, sha256 of a run at the box midpoint
    ("arch", 1, 5, "01752dec885261b16115b6d1b6f2d6d3665b3ae58ec74687b48ae70a3427f607"),
    ("vault", 1, 10, "8d485bcfe009e2005cee5dc2b2cd3484b8623befbf73ceadafb929460a261752"),
    ("arch", 3, 5, "a573553072f4fdedcff40bfebaa47417fb0f9332b1a099f84a2ebed8d6bb00a6"),
]


@pytest.mark.parametrize("name, refine, s, expected", LANCZOS_BITS, ids=[
    "%s%s-%s" % (name, "" if refine == 1 else refine, digest) for name, refine, _, digest in LANCZOS_BITS
])
def test_builtin_pencils_keep_their_lanczos_bits(name, refine, s, expected):
    # every field of the result as the run computed it before its
    # workspace was interleaved (x86-64, numpy 2.4 with OpenBLAS); a
    # layout or loop change must not move one bit of them
    pencil, box, _ = assemble_parametric(*benchmarks.benchmark(name, refine))
    result = lanczos_smallest(*pencil.evaluate(box.midpoint()), s=s)
    digest = hashlib.sha256()
    for field in ("eigenvalues", "vectors", "basis", "tridiagonal", "solves"):
        digest.update(np.ascontiguousarray(getattr(result, field)).tobytes())
    assert digest.hexdigest() == expected


def test_the_factor_is_freed_before_the_result_is_built(monkeypatch):
    # the band factor and the result's copies are never alive together
    factors, alive = [], []

    def factorize(matrix):
        factor = cholesky_factorize(matrix)
        factors.append(weakref.ref(factor))
        return factor

    def result(**fields):
        alive.append(factors[-1]() is not None)
        return LanczosResult(**fields)

    monkeypatch.setattr(lanczos, "cholesky_factorize", factorize)
    monkeypatch.setattr(lanczos, "LanczosResult", result)
    pencil, box, _ = assemble_parametric(*benchmarks.benchmark("arch"))
    lanczos_smallest(*pencil.evaluate(box.midpoint()), s=5)
    assert alive == [False]
