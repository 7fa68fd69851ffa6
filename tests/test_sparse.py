"""Sparse symmetric storage and the unpivoted Cholesky factorization."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st
from scipy.linalg import block_diag

import femupdate.sparse as sparse

from femupdate import (
    CholeskyFactor,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    SparseSymMatrix,
    assemble_parametric,
    benchmarks,
    cholesky_factorize,
    lanczos_smallest,
)

from conftest import random_banded_spd


def test_from_triplets_accumulates_duplicates():
    # entries below the diagonal, with (2,0) given twice
    m = SparseSymMatrix.from_triplets(
        3, [0, 1, 2, 2, 2], [0, 1, 0, 0, 2], [2.0, 3.0, 0.5, 0.25, 4.0]
    )
    expected = np.array([[2.0, 0.0, 0.75], [0.0, 3.0, 0.0], [0.75, 0.0, 4.0]])
    assert np.array_equal(m.to_dense(), expected)
    assert m.n == 3 and m.shape == (3, 3)


def test_from_triplets_rejects_upper_entries():
    with pytest.raises(ValueError):
        SparseSymMatrix.from_triplets(2, [0, 0, 1], [0, 1, 1], [1.0, 5.0, 2.0])


def test_from_full_requires_symmetry():
    full = np.array([[1.0, 2.0], [2.0, 3.0]])
    m = SparseSymMatrix.from_full(full)
    assert np.array_equal(m.to_dense(), full)
    with pytest.raises(ValueError):
        SparseSymMatrix.from_full(np.array([[1.0, 2.0], [0.0, 3.0]]))


def test_matvec_matches_dense():
    rng = np.random.default_rng(5)
    m = random_banded_spd(40, rng)
    dense = m.to_dense()
    v = rng.standard_normal(40)
    assert np.allclose(m.matvec(v), dense @ v, rtol=0, atol=1e-13)
    block = rng.standard_normal((40, 3))
    assert np.allclose(m.matvec(block), dense @ block, rtol=0, atol=1e-13)


def test_to_scipy_round_trip():
    rng = np.random.default_rng(6)
    m = random_banded_spd(25, rng)
    assert np.allclose(m.to_scipy().toarray(), m.to_dense(), atol=0)


def test_scaled():
    rng = np.random.default_rng(8)
    m = random_banded_spd(10, rng)
    assert np.allclose(m.scaled(3.0).to_dense(), 3.0 * m.to_dense(), atol=0)


def test_cholesky_solve_matches_dense_oracle():
    rng = np.random.default_rng(9)
    k = random_banded_spd(60, rng)
    factor = cholesky_factorize(k)
    b = rng.standard_normal(60)
    x = factor.solve(b)
    expected = np.linalg.solve(k.to_dense(), b)
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


def test_cholesky_factor_reconstructs_permuted_matrix():
    rng = np.random.default_rng(10)
    k = random_banded_spd(30, rng)
    factor = CholeskyFactor(k)
    eye = np.eye(30)
    assert np.linalg.norm(factor.solve(k.to_dense()) - eye) <= 1e-12 * np.linalg.norm(eye)


def test_cholesky_rejects_indefinite_matrix():
    # one negative eigenvalue
    full = np.array([[2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 3.0]])
    m = SparseSymMatrix.from_full(full)
    with pytest.raises(NotPositiveDefiniteError) as err:
        cholesky_factorize(m)
    assert err.value.pivot is not None


def test_cholesky_rejects_singular_matrix():
    full = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_factorize(SparseSymMatrix.from_full(full))


def test_cholesky_solve_dimension_check():
    rng = np.random.default_rng(11)
    factor = cholesky_factorize(random_banded_spd(8, rng))
    with pytest.raises(DimensionMismatchError):
        factor.solve(np.ones(9))


def _diagonal_slots(pattern):
    rows = np.repeat(np.arange(pattern.n), np.diff(pattern.indptr))
    return np.flatnonzero(pattern.indices == rows)


def test_factorizations_on_one_pattern_share_the_ordering():
    rng = np.random.default_rng(13)
    a = random_banded_spd(40, rng)
    data = a.data.copy()
    data[_diagonal_slots(a.pattern)] += rng.uniform(0.5, 2.0, 40)
    b = SparseSymMatrix(a.pattern, data)
    first, second = CholeskyFactor(a), CholeskyFactor(b)
    assert second.perm is first.perm
    assert not np.array_equal(first.perm, np.arange(40))
    eye = np.eye(40)
    for matrix, factor in ((a, first), (b, second)):
        residual = factor.solve(matrix.to_dense()) - eye
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(eye)


def test_reused_ordering_reports_pivot_in_original_numbering():
    rng = np.random.default_rng(14)
    a = random_banded_spd(30, rng)
    perm = CholeskyFactor(a).perm  # computes the pattern's ordering
    k = next(i for i in range(30) if perm[i] != i)  # dof k is not pivot k
    data = a.data.copy()
    data[_diagonal_slots(a.pattern)[k]] = -100.0
    with pytest.raises(NotPositiveDefiniteError) as err:
        cholesky_factorize(SparseSymMatrix(a.pattern, data))
    assert err.value.pivot == k


def _kernel(pattern):
    return "superlu" if pattern.ordering()[1] is None else "band"


def _random_spd_on(n, pairs, rng):
    """Diagonally dominant SPD matrix on the given (i, j) pairs and the diagonal."""
    a = np.zeros((n, n))
    for i, j in pairs:
        if i != j:
            a[i, j] = a[j, i] = rng.uniform(-1.0, 1.0)
    a[np.diag_indices(n)] = np.abs(a).sum(axis=1) + rng.uniform(0.5, 2.0, n)
    return SparseSymMatrix.from_full(a)


@given(wide=st.booleans(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_both_kernels_solve_and_locate_pivots(wide, data, seed):
    # Hubs coupled to every dof give kd >= (n - 1) / 2 in any ordering, so
    # n (kd + 1)² >= n (n + 1)² / 4, while these patterns fill only
    # nnz(L+U) <= 6.9 n (100 draws each at n = 240 and 320). So from
    # n = 240 up the cost ratio n (kd + 1)² / nnz(L+U) is at least 1.5
    # times BAND_COST_RATIO (least 2173 in those draws), which forces
    # SuperLU. At n = 150 it is only 0.6 times; a band of half-width <= 4
    # stays far below it.
    n = data.draw(st.integers(240, 320) if wide else st.integers(30, 80), label="n")
    rng = np.random.default_rng(seed)
    if wide:  # hubs coupled to every dof
        hubs = rng.choice(n, rng.integers(1, 3), replace=False)
        extra = rng.integers(0, n, (n // 4, 2))
        pairs = [(h, j) for h in hubs for j in range(n)] + list(extra)
    else:  # a random band of half-width <= 4 under a random relabelling
        width = rng.integers(1, 5)
        label = rng.permutation(n)
        pairs = [(label[i], label[i - off]) for off in range(1, width + 1)
                 for i in range(off, n) if off == 1 or rng.random() < 0.6]
    a = _random_spd_on(n, pairs, rng)
    assert _kernel(a.pattern) == ("superlu" if wide else "band")

    data = a.data.copy()
    data[_diagonal_slots(a.pattern)] += rng.uniform(0.5, 2.0, n)
    b = SparseSymMatrix(a.pattern, data)
    first, second = cholesky_factorize(a), cholesky_factorize(b)
    assert second.perm is first.perm
    for matrix, factor in ((a, first), (b, second)):
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            expected = np.linalg.solve(matrix.to_dense(), rhs)
            x = factor.solve(rhs)
            assert x.shape == rhs.shape
            assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)

    k = int(rng.integers(n))
    data = a.data.copy()
    data[_diagonal_slots(a.pattern)[k]] = -100.0
    with pytest.raises(NotPositiveDefiniteError) as err:
        cholesky_factorize(SparseSymMatrix(a.pattern, data))
    assert err.value.pivot == k


def _cost_ratio(pattern):
    """n (kd + 1)² / nnz(L+U) of a pattern: the band ordering's kd against
    the fill of the minimum-degree probe factorization."""
    ones = sp.csr_array((np.ones(pattern.nnz), pattern.indices, pattern.indptr),
                        shape=(pattern.n,) * 2)
    lu = sparse._splu((ones + sp.diags_array(np.diff(pattern.indptr) + 1.0)).tocsc(),
                      "MMD_AT_PLUS_A")
    at = np.argsort(sparse._band_ordering(ones))
    kd = np.max(at[pattern.keys() // pattern.n] - at[pattern.indices])
    return pattern.n * (kd + 1.0) ** 2 / lu.nnz


@pytest.mark.parametrize("name, refine, kernel", [
    ("arch", 1, "band"), ("arch", 2, "band"), ("arch", 3, "band"),
    ("vault", 1, "band"), ("vault", 2, "superlu"),
])
def test_builtin_structures_keep_their_kernel(name, refine, kernel):
    pencil, box, _ = assemble_parametric(*benchmarks.benchmark(name, refine))
    pattern = pencil.evaluate(box.midpoint())[0].pattern
    assert _kernel(pattern) == kernel
    if kernel == "band":  # the arch's piers are 2 (6 refine + 1) dofs across
        max_kd = {("arch", 1): 22, ("arch", 2): 36, ("arch", 3): 48, ("vault", 1): 343}
        assert pattern.ordering()[1] <= max_kd[name, refine]
    # a mesh change that drifts toward the threshold fails here first
    ratio = _cost_ratio(pattern) / sparse.BAND_COST_RATIO
    assert (ratio <= 1.0) == (kernel == "band")
    assert max(ratio, 1.0 / ratio) >= 1.3


@pytest.mark.parametrize("name, probes", [("arch", 0), ("vault", 1)])
def test_ordering_probes_fill_only_when_zero_fill_leaves_the_choice_open(
    name, probes, monkeypatch
):
    # arch r1: n (kd + 1)² = 26.5 nnz(A), within BAND_COST_RATIO nnz(A) <=
    # BAND_COST_RATIO nnz(L+U), so the band kernel wins without a probe;
    # vault r1's 2375 nnz(A) needs the probe's fill to decide
    pencil, box, _ = assemble_parametric(*benchmarks.benchmark(name))
    pattern = pencil.evaluate(box.midpoint())[0].pattern
    calls = []

    def counting(a, permc_spec):
        calls.append(permc_spec)
        return splu(a, permc_spec)

    splu = sparse._splu
    monkeypatch.setattr(sparse, "_splu", counting)
    perm, kd, _ = pattern.ordering()
    assert calls == ["MMD_AT_PLUS_A"] * probes
    assert kd is not None  # both are band at r1
    monkeypatch.undo()
    assert _cost_ratio(pattern) <= sparse.BAND_COST_RATIO  # the probe agrees


@pytest.mark.parametrize("name", ["arch", "vault"])
def test_kernel_choice_is_a_pure_function_of_the_structure(name):
    # byte-identical convergence.csv files need every assembly of one
    # structure to get the same ordering, kernel and rounding
    runs = []
    for _ in range(2):
        pencil, box, _ = assemble_parametric(*benchmarks.benchmark(name))
        k, m = pencil.evaluate(box.midpoint())
        perm, kd, _ = k.pattern.ordering()
        rhs = np.random.default_rng(0).standard_normal((k.n, 3))
        x = cholesky_factorize(k).solve(rhs)
        runs.append((k.pattern, perm, kd, x, lanczos_smallest(k, m, 10).eigenvalues))
    (pa, perm_a, kd_a, xa, ea), (pb, perm_b, kd_b, xb, eb) = runs
    assert pa is not pb and kd_a is not None  # both structures are band at r1
    assert kd_a == kd_b and np.array_equal(perm_a, perm_b)
    assert xa.tobytes() == xb.tobytes() and ea.tobytes() == eb.tobytes()


def _strip_mask(short, long, rng):
    """Q4 strip of short x long elements, 2 dofs per node, randomly relabelled.

    Entry (a, b) holds when the nodes of dofs a and b share an element.
    """
    w, h = (short, long) if rng.random() < 0.5 else (long, short)
    x, y = np.divmod(np.arange((w + 1) * (h + 1)), h + 1)
    near = (abs(x[:, None] - x) <= 1) & (abs(y[:, None] - y) <= 1)
    label = rng.permutation(2 * x.size)
    return np.kron(near, np.ones((2, 2), dtype=bool))[np.ix_(label, label)]


def _band_kd(mask):
    """Half-bandwidth the ordering of a symmetric mask's pattern gives (None: SuperLU)."""
    return SparseSymMatrix.from_full(mask.astype(float)).pattern.ordering()[1]


@given(short=st.integers(1, 8), extra=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
def test_strip_half_bandwidth_follows_its_short_side(short, extra, seed):
    # one row of nodes across the short side is 2 (short + 1) dofs wide;
    # numbered row by row, a node's diagonal neighbour is 2 short + 5 away
    kd = _band_kd(_strip_mask(short, 3 * short + extra, np.random.default_rng(seed)))
    assert kd is not None and kd <= 2 * short + 5


def test_disconnected_pattern_orders_each_component():
    rng = np.random.default_rng(15)
    first, second = _strip_mask(2, 9, rng), _strip_mask(4, 14, rng)
    n, m = len(first) + len(second), len(first)
    label = rng.permutation(n)  # interleaves the two strips' dofs
    mask = block_diag(first, second)[np.ix_(label, label)]
    # each strip alone, its dofs in the relative order they have here
    at = np.argsort(label)
    alone = [_band_kd(mask[np.ix_(p, p)]) for p in (np.sort(at[:m]), np.sort(at[m:]))]
    assert None not in alone

    # a third component, a star of 401 leaves, leaves kd >= 200 in any
    # ordering: n (kd + 1)² is 2.9 times BAND_COST_RATIO nnz(L+U), SuperLU
    star = np.zeros((n + 401, n + 401), dtype=bool)
    star[:n, :n] = mask
    star[n, n:] = star[n:, n] = True
    for kernel, full in (("band", mask), ("superlu", star)):
        a = _random_spd_on(len(full), np.argwhere(full), rng)
        assert _kernel(a.pattern) == kernel
        if kernel == "band":
            assert a.pattern.ordering()[1] == max(alone)
        b = rng.standard_normal((len(full), 2))
        expected = np.linalg.solve(a.to_dense(), b)
        x = cholesky_factorize(a).solve(b)
        assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)
