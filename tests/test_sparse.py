"""Sparse symmetric storage and the unpivoted Cholesky factorization."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, strategies as st
from scipy.linalg import block_diag
from scipy.sparse.csgraph import dijkstra

import femupdate.sparse as sparse

from femupdate import (
    DimensionMismatchError,
    Material,
    Mesh,
    NotPositiveDefiniteError,
    SparseSymMatrix,
    assemble_parametric,
    benchmarks,
    lanczos_smallest,
)
from femupdate.sparse import CholeskyFactor, cholesky_factorize

from conftest import grid_mesh, random_banded_spd


def test_from_full_requires_symmetry():
    full = np.array([[1.0, 2.0], [2.0, 3.0]])
    m = SparseSymMatrix.from_full(full)
    assert np.array_equal(m.to_dense(), full)
    assert m.n == 2 and m.shape == (2, 2)
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


@given(kind=st.sampled_from(("hubs", "band", "wide band")), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_both_kernels_solve_and_locate_pivots(kind, data, seed):
    # Hubs coupled to every dof give kd >= (n - 1) / 2 in any ordering, so
    # n (kd + 1)² >= n (n + 1)² / 4, while these patterns fill only
    # nnz(L+U) <= 6.9 n (100 draws each at n = 240 and 320). So from
    # n = 240 up the cost ratio n (kd + 1)² / nnz(L+U) is at least 1.5
    # times BAND_COST_RATIO (least 2173 in those draws), which forces
    # SuperLU. At n = 150 it is only 0.6 times; a band of half-width <= 4
    # stays far below it. Bands of half-width 17-70 order to kd of about
    # 20-110, on both sides of the rule that pads the stored width.
    sizes = {"hubs": (240, 320), "band": (30, 80), "wide band": (150, 240)}
    n = data.draw(st.integers(*sizes[kind]), label="n")
    rng = np.random.default_rng(seed)
    if kind == "hubs":  # hubs coupled to every dof
        hubs = rng.choice(n, rng.integers(1, 3), replace=False)
        extra = rng.integers(0, n, (n // 4, 2))
        pairs = [(h, j) for h in hubs for j in range(n)] + list(extra)
    else:  # a random band under a random relabelling
        width = rng.integers(1, 5) if kind == "band" else rng.integers(17, 71)
        label = rng.permutation(n)
        pairs = [(label[i], label[i - off]) for off in range(1, width + 1)
                 for i in range(off, n) if off == 1 or rng.random() < 0.6]
    a = _random_spd_on(n, pairs, rng)
    assert _kernel(a.pattern) == ("superlu" if kind == "hubs" else "band")

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


def test_superlu_reports_an_exactly_singular_pivot_as_unknown():
    # SuperLU says only "exactly singular", not which pivot is zero
    rng = np.random.default_rng(5)
    n = 300
    pairs = [(h, j) for h in (0, 1) for j in range(n)] + list(rng.integers(0, n, (n // 4, 2)))
    a = _random_spd_on(n, pairs, rng)
    assert _kernel(a.pattern) == "superlu"
    data = a.data.copy()
    data[(a.pattern.keys() // n == 5) | (a.pattern.indices == 5)] = 0.0  # row and column 5
    with pytest.raises(NotPositiveDefiniteError, match="pivot at an unknown index") as err:
        cholesky_factorize(SparseSymMatrix(a.pattern, data))
    assert err.value.pivot is None


def _ones(pattern):
    return sp.csr_array((np.ones(pattern.nnz), pattern.indices, pattern.indptr),
                        shape=(pattern.n,) * 2)


def _half_bandwidth(pattern, perm):
    at = np.argsort(perm)
    return int(np.max(at[pattern.keys() // pattern.n] - at[pattern.indices], initial=0))


def _cost_ratio(pattern):
    """n (kd + 1)² / nnz(L+U) of a band pattern: the kd of the ordering it
    chose against the fill of the minimum-degree probe factorization."""
    lu = sparse._splu((_ones(pattern) + sp.diags_array(np.diff(pattern.indptr) + 1.0)).tocsc(),
                      "MMD_AT_PLUS_A")
    return pattern.n * (pattern.ordering()[1] + 1.0) ** 2 / lu.nnz


@pytest.mark.parametrize("name, refine, kernel", [
    ("arch", 1, "band"), ("arch", 2, "band"), ("arch", 3, "band"),
    ("vault", 1, "band"), ("vault", 2, "band"),
])
def test_builtin_structures_keep_their_kernel(name, refine, kernel):
    pencil, box, _ = assemble_parametric(*benchmarks.benchmark(name, refine))
    pattern = pencil.evaluate(box.midpoint())[0].pattern
    assert _kernel(pattern) == kernel
    if kernel == "band":  # the arch's piers are 2 (6 refine + 1) dofs across
        max_kd = {("arch", 1): 22, ("arch", 2): 36, ("arch", 3): 48,
                  ("vault", 1): 188, ("vault", 2): 624}
        assert pattern.ordering()[1] <= max_kd[name, refine]
    # a mesh change that drifts toward the threshold fails here first
    ratio = _cost_ratio(pattern) / sparse.BAND_COST_RATIO
    assert (ratio <= 1.0) == (kernel == "band")
    assert max(ratio, 1.0 / ratio) >= 1.3


def test_builtin_band_factors_are_stored_at_the_grain_where_it_is_cheap():
    # arch r3 and vault r1 pad to a multiple of 16 diagonals (+9% and +2%
    # storage); arch r1 and r2 would need +65% and +44%, so stay at kd;
    # vault r2's 624 is one already
    stored = {("arch", 1): (19, 19), ("arch", 2): (33, 33),
              ("arch", 3): (44, 48), ("vault", 1): (188, 192), ("vault", 2): (624, 624)}
    for (name, refine), (kd, width) in stored.items():
        pencil, box, _ = assemble_parametric(*benchmarks.benchmark(name, refine))
        _, order_kd, (_, _, w) = pencil.evaluate(box.midpoint())[0].pattern.ordering()
        assert (order_kd, w) == (kd, width), (name, refine)


@pytest.mark.parametrize("name, refine, probes", [("arch", 1, 0), ("vault", 1, 0), ("vault", 2, 1)])
def test_ordering_probes_fill_only_when_zero_fill_leaves_the_choice_open(
    name, refine, probes, monkeypatch
):
    # arch r1 and vault r1: n (kd + 1)² = 26.5 and 717 nnz(A), within
    # BAND_COST_RATIO nnz(A) <= BAND_COST_RATIO nnz(L+U), so the band kernel
    # wins without a probe; vault r2's 6409 nnz(A) needs the probe's fill
    pencil, box, _ = assemble_parametric(*benchmarks.benchmark(name, refine))
    pattern = pencil.evaluate(box.midpoint())[0].pattern
    calls = []

    def counting(a, permc_spec):
        calls.append(permc_spec)
        return splu(a, permc_spec)

    splu = sparse._splu
    monkeypatch.setattr(sparse, "_splu", counting)
    perm, kd, _ = pattern.ordering()
    assert calls == ["MMD_AT_PLUS_A"] * probes
    assert kd is not None  # all three are band
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


def _clamped_grid(dim, footings, data, rng):
    """A drawn grid (``grid_mesh``) with nodes clamped anywhere, or only on
    the base (last coordinate 0), where the rooted candidate can win; its
    clamped nodes and materials, one free Young modulus per region."""
    shape = data.draw(st.lists(st.integers(1, 8 if dim == 2 else 4), min_size=dim,
                               max_size=dim), label="shape")
    n_nodes = int(np.prod(np.add(shape, 1)))
    if footings:
        nodes = np.flatnonzero(np.arange(n_nodes) % (shape[-1] + 1) == 0)
        count = rng.integers(1, nodes.size + 1)
    else:
        nodes, count = np.arange(n_nodes), rng.integers(1, max(2, n_nodes // 4) + 1)
    clamped = np.sort(rng.choice(nodes, count, replace=False))
    mesh = grid_mesh(shape, clamped)
    offsets = mesh.coords[clamped] - mesh.coords[clamped[0]]
    # clamped nodes that span a line (2D) or a plane (3D) leave no rigid mode
    assume(clamped.size < n_nodes and np.linalg.matrix_rank(offsets) >= dim - 1)
    materials = [Material("m%d" % r, young=1.0 + r, density=1.0, poisson=0.3, free_young=True,
                          young_bounds=(0.5, 4.0)) for r in range(mesh.n_regions)]
    return mesh, clamped, materials


_GRID_DRAWS = dict(dim=st.sampled_from((2, 3)), footings=st.booleans(), data=st.data(),
                   seed=st.integers(0, 2**32 - 1))


@given(**_GRID_DRAWS)
def test_rooted_ordering_on_random_grids(dim, footings, data, seed):
    # the rooted candidate wins in 15 of the 100 draws
    rng = np.random.default_rng(seed)
    mesh, clamped, materials = _clamped_grid(dim, footings, data, rng)
    k = assemble_parametric(mesh, materials)[0].evaluate(np.full(mesh.n_regions, 2.0))[0]
    pattern = k.pattern

    # the roots are the free dofs of the nodes that share an element with a clamped node
    near = np.unique(mesh.elements[np.isin(mesh.elements, clamped).any(axis=1)])
    free_nodes = np.setdiff1d(np.arange(mesh.n_nodes), clamped)
    assert np.array_equal(pattern.roots, np.flatnonzero(np.isin(free_nodes, near).repeat(dim)))

    perm, kd, _ = pattern.ordering()
    assert np.array_equal(np.sort(perm), np.arange(k.n))
    assert kd is not None  # grids this small are band at zero fill
    permuted = _ones(pattern).toarray()[np.ix_(perm, perm)]
    assert kd == max(i - j for i, j in np.argwhere(permuted))
    gps = sparse._band_ordering(_ones(pattern))  # kept unless the rooted one is narrower
    assert kd < _half_bandwidth(pattern, gps) or np.array_equal(perm, gps)

    rhs = rng.standard_normal((k.n, 2))
    expected = np.linalg.solve(k.to_dense(), rhs)
    assert np.linalg.norm(cholesky_factorize(k).solve(rhs) - expected) <= (
        1e-10 * np.linalg.norm(expected))
    pivot = int(rng.integers(k.n))
    values = k.data.copy()
    values[_diagonal_slots(pattern)[pivot]] = -np.abs(k.data).max()
    with pytest.raises(NotPositiveDefiniteError) as err:
        cholesky_factorize(SparseSymMatrix(pattern, values))
    assert err.value.pivot == pivot

    again = assemble_parametric(mesh, materials)[0].evaluate(np.ones(mesh.n_regions))[0]
    assert again.pattern is not pattern and np.array_equal(again.pattern.ordering()[0], perm)


@given(**_GRID_DRAWS)
def test_rooted_candidate_is_skipped_only_where_it_cannot_be_narrower(dim, footings, data, seed):
    # numbered level by level, the last node of a level d >= 1 has a neighbour
    # on level d - 1, numbered before the whole level: the widest such level
    # of one component bounds the rooted kd from below, so skipping the
    # candidate where that reaches GPS's kd leaves the ordering as it was
    mesh, _, materials = _clamped_grid(dim, footings, data, np.random.default_rng(seed))
    pencil = assemble_parametric(mesh, materials)[0]
    pattern = pencil.evaluate(np.full(mesh.n_regions, 2.0))[0].pattern
    if data.draw(st.booleans(), label="two copies"):  # levels count per component
        pair = sp.block_diag([_ones(pattern)] * 2, format="csr")
        pair.sort_indices()
        roots = np.concatenate([pattern.roots, pattern.n + pattern.roots])
        pattern = sparse.SymmetricPattern(2 * pattern.n, pair.indptr, pair.indices, roots)
    ones = _ones(pattern)
    depth = dijkstra(ones, indices=pattern.roots, unweighted=True, min_only=True)
    assume(np.isfinite(depth).all())  # a root in every component
    depth = depth.astype(np.int64)
    gps, rooted = sparse._band_ordering(ones), sparse._band_ordering(ones, depth)
    widths = [_half_bandwidth(pattern, perm) for perm in (gps, rooted)]
    assert sparse._widest_level(ones, depth) <= widths[1]
    perm, kd, (_, _, w) = pattern.ordering()  # both built, GPS kept on a tie
    assert np.array_equal(perm, rooted if widths[1] < widths[0] else gps)
    assert (kd, w) == (min(widths), sparse._band_width(min(widths)))


def test_support_roots_reach_k_and_gps_stays_where_narrower(tmp_path):
    mesh, materials = benchmarks.benchmark("vault")
    pencil, box, _ = assemble_parametric(mesh, materials)
    k = pencil.evaluate(box.midpoint())[0]
    # each term is restricted from the assembly pattern, K(x) is on their union
    roots = pencil.derivative(0)[0].pattern.roots
    assert roots.size and np.array_equal(k.pattern.roots, roots)
    scaled = pencil.scaled_by(box.midpoint())
    assert scaled.evaluate(np.ones(len(box)))[0].pattern is k.pattern
    some, other, none = (sparse.SymmetricPattern(3, [0, 1, 2, 3], [0, 1, 2], r)
                         for r in ([0, 2], [1, 2], None))
    assert np.array_equal(some.restrict([0, 2]).roots, [0, 2])
    assert np.array_equal(sparse.union_pattern([some, none, other]).roots, [0, 1, 2])
    assert sparse.union_pattern([none]).roots is None
    _, kd, (_, _, w) = k.pattern.ordering()
    assert kd < _half_bandwidth(k.pattern, sparse._band_ordering(_ones(k.pattern)))

    mesh.save(tmp_path / "vault.mesh")
    reloaded = assemble_parametric(Mesh.load(tmp_path / "vault.mesh"), materials)[0]
    pattern = reloaded.evaluate(box.midpoint())[0].pattern
    assert np.array_equal(pattern.roots, k.pattern.roots)
    _, reloaded_kd, (_, _, reloaded_w) = pattern.ordering()
    assert (reloaded_kd, reloaded_w) == (kd, w)

    # GPS stays where it is narrower (every arch pattern, K's and M's) and
    # where it is the only candidate (no roots)
    full = random_banded_spd(40, np.random.default_rng(16)).pattern
    assert full.roots is None
    patterns = [full]
    for refine in (1, 2, 3):
        arch, arch_box, _ = assemble_parametric(*benchmarks.benchmark("arch", refine))
        patterns += [a.pattern for a in arch.evaluate(arch_box.midpoint())]
    for pattern in patterns:
        assert np.array_equal(pattern.ordering()[0], sparse._band_ordering(_ones(pattern)))
