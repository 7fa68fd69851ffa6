"""Element matrices and parametric assembly against physics oracles."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, strategies as st

from femupdate import (
    Material,
    Mesh,
    ParametricPencil,
    SparseSymMatrix,
    UpdatingProblem,
    assemble_parametric,
    benchmarks,
    evaluate_full,
)
from femupdate.fem import MPA, _Scatter, _element_matrices

from conftest import ARCH_TRUE, dense_smallest, grid_mesh


def unit_square():
    return np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])


def unit_cube():
    corners = [
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ]
    return np.array([corners], dtype=np.float64)


def test_quad_stiffness_rigid_body_modes():
    k = _element_matrices(unit_square(), 3000.0, 0.3, 0.0)[0][0]
    tx = np.tile([1.0, 0.0], 4)
    ty = np.tile([0.0, 1.0], 4)
    coords = unit_square()[0]
    rot = np.column_stack([-coords[:, 1], coords[:, 0]]).ravel()
    scale = np.linalg.norm(k)
    for mode in (tx, ty, rot):
        assert np.linalg.norm(k @ mode) <= 1e-10 * scale


def test_quad_stiffness_symmetric_positive_semidefinite():
    coords = np.array([[[0.0, 0.0], [2.0, 0.1], [1.9, 1.2], [-0.1, 1.0]]])
    k = _element_matrices(coords, 100.0, 0.25, 0.0)[0][0]
    assert np.allclose(k, k.T, atol=0)
    eigs = np.linalg.eigvalsh(k)
    assert eigs.min() >= -1e-9 * eigs.max()
    assert np.sum(eigs > 1e-9 * eigs.max()) == 5  # 8 dofs minus 3 rigid modes


def test_quad_mass_total_equals_density_times_area():
    rho = 2345.0
    m = _element_matrices(unit_square(), 0.0, 0.0, rho)[1][0]
    tx = np.tile([1.0, 0.0], 4)
    ty = np.tile([0.0, 1.0], 4)
    assert np.isclose(tx @ m @ tx, rho * 1.0, rtol=1e-13)
    assert np.isclose(ty @ m @ ty, rho * 1.0, rtol=1e-13)
    assert np.allclose(m, m.T, atol=0)


def test_hex_stiffness_rigid_body_modes():
    k = _element_matrices(unit_cube(), 5000.0, 0.2, 0.0)[0][0]
    coords = unit_cube()[0]
    modes = []
    for axis in range(3):
        t = np.zeros((8, 3))
        t[:, axis] = 1.0
        modes.append(t.ravel())
    # infinitesimal rotations about each axis
    for a, b in ((0, 1), (1, 2), (0, 2)):
        r = np.zeros((8, 3))
        r[:, a] = -coords[:, b]
        r[:, b] = coords[:, a]
        modes.append(r.ravel())
    scale = np.linalg.norm(k)
    for mode in modes:
        assert np.linalg.norm(k @ mode) <= 1e-10 * scale
    eigs = np.linalg.eigvalsh(k)
    assert np.sum(np.abs(eigs) <= 1e-9 * eigs.max()) == 6


def test_hex_mass_total_equals_density_times_volume():
    rho = 1789.0
    m = _element_matrices(unit_cube(), 0.0, 0.0, rho)[1][0]
    tz = np.tile([0.0, 0.0, 1.0], 8)
    assert np.isclose(tz @ m @ tz, rho * 1.0, rtol=1e-13)


def test_degenerate_element_raises():
    bad = unit_square()
    bad[0, [1, 3]] = bad[0, [3, 1]]  # reversed orientation flips the Jacobian
    with pytest.raises(ValueError, match="singular element geometry"):
        _element_matrices(bad, 1.0, 0.0, 0.0)
    nan = unit_square()
    nan[0, 2, 0] = np.nan  # a NaN determinant fails the check too
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="singular element"):
        _element_matrices(nan, 1.0, 0.0, 0.0)
    # in a mesh the message names the element by its nodes, in whichever
    # region it lies
    coords = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 0.0], [2.0, 1.0]]
    mesh = Mesh(coords, [[0, 1, 2, 3], [1, 2, 5, 4]], [1, 2], [0, 1])  # second is clockwise
    materials = [Material("a", 1.0, 1.0, 0.2), Material("b", 1.0, 1.0, 0.3)]
    with pytest.raises(ValueError, match=r"nodes at \[\[1.0, 0.0\], \[1.0, 1.0\], \[2.0, 1.0\]"):
        assemble_parametric(mesh, materials)


def _pencil_sha256(pencil):
    """sha256 over each family's pattern with its roots and base values, and
    every increment's pattern and values."""
    digest = hashlib.sha256()
    for family in (pencil._k, pencil._m):
        pattern = family.pattern
        for array in (pattern.indptr, pattern.indices, pattern.roots, family.base.data):
            digest.update(np.ascontiguousarray(array).tobytes())
        for term in family.increments:
            for array in (term.pattern.indptr, term.pattern.indices, term.data):
                digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


PENCIL_BITS = [  # name, refine, sha256, the band kernel's (kd, w) for K(x)
    ("arch", 1, "96c632afe645224ed1d76a8d1c22693354f85e088ed5d06dec64acf65760e018", (19, 19)),
    ("vault", 1, "71adaf9dc9a150a1ac7fe9e8886b77a523b992c477fde4a4be8d8054bf87c6be", (188, 192)),
    ("arch", 3, "ade159adc89b2622b842160bb4795be3f3090a1cadbac7c77604c9e012a0a118", (44, 48)),
]


@pytest.mark.parametrize("name, refine, expected, kernel", PENCIL_BITS, ids=[
    "%s%s-%s" % (name, "" if refine == 1 else refine, digest) for name, refine, digest, _ in PENCIL_BITS
])
def test_builtin_pencils_keep_their_bits(name, refine, expected, kernel):
    # the refine-1 pencils as assembly built them when every term was
    # restricted to its nonzeros and merged again, and the refine-3 arch
    # that the benchmark solves (x86-64, numpy 2.4 with OpenBLAS); a faster
    # assembly must not move one bit of them, and so not the band kernel's
    # (kd, w) either, which one cancelled entry can narrow
    pencil = assemble_parametric(*benchmarks.benchmark(name, refine))[0]
    assert _pencil_sha256(pencil) == expected
    _, kd, pack = pencil.evaluate(np.ones(pencil.n_parameters))[0].pattern.ordering()
    assert (kd, pack[2]) == kernel


def _merged_pencil(mesh, materials):
    """The pencil built the long way: each region's element matrices
    scattered on their own, each term restricted to its nonzeros on the
    scatter's pattern, then all united by the public constructor."""
    scatter = _Scatter(mesh)

    def matrix(values):
        nonzero = np.flatnonzero(values != 0.0)
        return SparseSymMatrix(scatter.pattern.restrict(nonzero), values[nonzero])

    bases, increments, names = np.zeros((2, scatter.pattern.nnz)), [], []
    for rid, mat in enumerate(materials, start=1):
        which = np.flatnonzero(mesh.regions == rid)
        ke, me = _element_matrices(mesh.coords[mesh.elements[which]], 1.0, mat.poisson, 1.0)
        region = scatter.assemble(which, ke, me)
        for k, prop in enumerate(("young", "density")):
            if getattr(mat, "free_" + prop):
                pair = [matrix(np.zeros(scatter.pattern.nnz))] * 2
                pair[k] = matrix(region[k])
                increments.append(pair)
                names.append("%s:%s" % (prop, mat.name))
            else:
                bases[k] += float(getattr(mat, prop)) * region[k]
    return ParametricPencil(matrix(bases[0]), matrix(bases[1]), [p[0] for p in increments],
                            [p[1] for p in increments], names)


def _assert_same_arrays(built, merged):
    assert built.names == merged.names
    for ours, theirs in ((built._k, merged._k), (built._m, merged._m)):
        for a, b in zip(_family_arrays(ours), _family_arrays(theirs), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("name, poissons", [
    ("arch", None), ("vault", None), ("arch", [0.2, 0.3, 0.2]), ("vault", [0.25, 0.1, 0.3, 0.25]),
])
def test_region_values_match_the_public_element_matrices_bit_for_bit(name, poissons):
    # the built-in structures, with their own Poisson ratios and with mixed
    # ones where two regions share a ratio: every region's terms in the
    # assembled pencil hold the bits that the public element matrices of
    # that region, scattered and merged, give
    mesh, materials = benchmarks.benchmark(name)
    if poissons is not None:
        materials = [dataclasses.replace(m, poisson=nu) for m, nu in zip(materials, poissons)]
    _assert_same_arrays(assemble_parametric(mesh, materials)[0], _merged_pencil(mesh, materials))


@given(dim=st.sampled_from((2, 3)), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_assembly_builds_the_pencil_that_merging_restricted_terms_builds(dim, data, seed):
    rng = np.random.default_rng(seed)
    shape = data.draw(st.lists(st.integers(1, 4 if dim == 2 else 2), min_size=dim, max_size=dim))
    side = np.prod(np.add(shape, 1)[1:])  # nodes at x = 0, which are clamped
    grid = grid_mesh(shape, np.arange(side))
    count = data.draw(st.integers(1, min(4, grid.n_elements)), label="regions")
    regions = 1 + rng.permutation(grid.n_elements) % count  # every id, in random cells
    coords = grid.coords + rng.uniform(-0.2, 0.2, grid.coords.shape)  # distorted, never inverted
    mesh = Mesh(coords, grid.elements, regions, grid.fixed_dofs)
    materials = [
        Material("m%d" % r, young=rng.uniform(100.0, 9000.0), density=rng.uniform(500.0, 3000.0),
                 poisson=data.draw(st.sampled_from((0.0, 0.2, 0.3, 0.45)), label="poisson"),
                 free_young=data.draw(st.booleans(), label="free young"),
                 free_density=data.draw(st.booleans(), label="free density"))
        for r in range(count)
    ]
    _assert_same_arrays(assemble_parametric(mesh, materials)[0], _merged_pencil(mesh, materials))


def _family_arrays(family):
    """Every array of an affine family: its pattern with roots, base values,
    parameter columns, and each increment's pattern with roots and values."""
    columns = family._columns
    arrays = [family.pattern.indptr, family.pattern.indices, family.pattern.roots,
              family.base.data, columns.indptr, columns.indices, columns.data]
    for term in family.increments:
        arrays += [term.pattern.indptr, term.pattern.indices, term.pattern.roots, term.data]
    return arrays


@given(dim=st.sampled_from((2, 3)), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_scatter_map_and_pencil_match_a_dense_oracle(dim, data, seed):
    # checked without the scatter map's index arithmetic: its pattern is the
    # set of free-dof pairs that share an element, its roots the free dofs
    # that share one with a fixed dof, each element entry's slot holds that
    # entry's (row, col) or -1 at a fixed dof, and K(x), M(x) are what
    # np.add.at of every element's matrices at x assembles densely
    rng = np.random.default_rng(seed)
    shape = data.draw(st.lists(st.integers(1, 4 if dim == 2 else 2), min_size=dim, max_size=dim))
    grid = grid_mesh(shape, np.zeros(0, dtype=np.int64))
    fixed = rng.choice(grid.n_dofs, data.draw(st.integers(1, grid.n_dofs - 1), label="fixed"),
                       replace=False)
    count = data.draw(st.integers(1, min(3, grid.n_elements)), label="regions")
    regions = 1 + rng.permutation(grid.n_elements) % count
    coords = grid.coords + rng.uniform(-0.2, 0.2, grid.coords.shape)  # distorted, never inverted
    mesh = Mesh(coords, grid.elements, regions, fixed)
    index = np.full(mesh.n_dofs, -1)
    index[mesh.free_dofs()] = np.arange(mesh.n_dofs - mesh.fixed_dofs.size)
    dofs = (dim * mesh.elements[:, :, None] + np.arange(dim)).reshape(mesh.n_elements, -1)
    rows, cols = np.broadcast_arrays(index[dofs][:, :, None], index[dofs][:, None, :])
    free = (rows >= 0) & (cols >= 0)
    scatter = _Scatter(mesh)
    pattern = scatter.pattern
    assert np.array_equal(pattern.keys(), np.unique((rows * pattern.n + cols)[free]))
    assert np.array_equal(pattern.roots, np.unique(rows[(rows >= 0) & (cols < 0)]))
    slots = scatter.slots.reshape(rows.shape)
    assert np.all(slots[~free] == -1)
    assert np.array_equal(np.repeat(np.arange(pattern.n), np.diff(pattern.indptr))[slots[free]],
                          rows[free])
    assert np.array_equal(pattern.indices[slots[free]], cols[free])

    materials = [
        Material("m%d" % r, young=rng.uniform(100.0, 9000.0), density=rng.uniform(500.0, 3000.0),
                 poisson=data.draw(st.sampled_from((0.0, 0.2, 0.3, 0.45)), label="poisson"),
                 free_young=data.draw(st.booleans(), label="free young"),
                 free_density=data.draw(st.booleans(), label="free density"))
        for r in range(count)
    ]
    pencil, _, start = assemble_parametric(mesh, materials)
    x = start * rng.uniform(0.5, 2.0, start.size)
    value = dict(zip(pencil.names, x))
    dense = np.zeros((2, mesh.n_dofs, mesh.n_dofs))
    for conn, element_dofs, rid in zip(mesh.elements, dofs, mesh.regions):
        mat = materials[rid - 1]
        young, density = (value.get("%s:%s" % (prop, mat.name), getattr(mat, prop))
                          for prop in ("young", "density"))
        matrices = _element_matrices(mesh.coords[conn][None], young, mat.poisson, density)
        for total, matrix in zip(dense, matrices):
            np.add.at(total, (element_dofs[:, None], element_dofs), matrix[0])
    kept = np.ix_(mesh.free_dofs(), mesh.free_dofs())
    for ours, total in zip(pencil.evaluate(x), dense):
        assert np.abs(ours.to_dense() - total[kept]).max() <= 1e-12 * np.abs(total).max()


def bar_mesh_2d(nx=40, ny=2, length=10.0, height=1.0):
    """Axial bar: y fixed everywhere, x fixed at the root."""
    xs = np.linspace(0.0, length, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    coords = np.array([[x, y] for y in ys for x in xs])
    elems = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b = a + 1
            c = b + (nx + 1)
            d = a + (nx + 1)
            elems.append([a, b, c, d])
    fixed = []
    for node, (x, _) in enumerate(coords):
        fixed.append(2 * node + 1)  # y everywhere: pure axial motion
        if x == 0.0:
            fixed.append(2 * node)
    return Mesh(coords, np.array(elems), np.ones(len(elems), dtype=np.int64), np.array(sorted(fixed)))


def test_axial_bar_frequencies_match_wave_equation():
    # fixed-free bar: f_n = (2n - 1) c / (4 L), c = sqrt(E / rho).
    # poisson = 0 makes the plane-strain axial modulus exactly E.
    young, rho, length = 100.0, 1000.0, 10.0
    mesh = bar_mesh_2d(length=length)
    mat = Material("bar", young=young, density=rho, poisson=0.0, free_young=True,
                   young_bounds=(10.0, 1000.0))
    pencil, box, start = assemble_parametric(mesh, [mat])
    problem = UpdatingProblem(pencil, box, measured=[1.0, 2.0, 3.0], lanczos_tol=1e-9)
    freqs = evaluate_full(problem, np.array([young])).frequencies
    c = np.sqrt(young * MPA / rho)
    analytic = np.array([1.0, 3.0, 5.0]) * c / (4.0 * length)
    assert np.allclose(freqs, analytic, rtol=2e-3)


def test_axial_bar_frequencies_3d():
    young, rho, length = 100.0, 1000.0, 10.0
    nx = 30
    xs = np.linspace(0.0, length, nx + 1)
    coords, elems = [], []
    for x in xs:
        for y in (0.0, 1.0):
            for z in (0.0, 1.0):
                coords.append([x, y, z])
    for i in range(nx):
        a = 4 * i
        b = 4 * (i + 1)
        elems.append([a, b, b + 2, a + 2, a + 1, b + 1, b + 3, a + 3])
    coords = np.array(coords)
    fixed = []
    for node, (x, _, _) in enumerate(coords):
        fixed.extend([3 * node + 1, 3 * node + 2])
        if x == 0.0:
            fixed.append(3 * node)
    mesh = Mesh(coords, np.array(elems), np.ones(nx, dtype=np.int64), np.array(sorted(fixed)))
    mat = Material("bar", young=young, density=rho, poisson=0.0, free_young=True,
                   young_bounds=(10.0, 1000.0))
    pencil, box, _ = assemble_parametric(mesh, [mat])
    problem = UpdatingProblem(pencil, box, measured=[1.0, 2.0], lanczos_tol=1e-9)
    freqs = evaluate_full(problem, np.array([young])).frequencies
    c = np.sqrt(young * MPA / rho)
    analytic = np.array([1.0, 3.0]) * c / (4.0 * length)
    assert np.allclose(freqs, analytic, rtol=3e-3)


def test_affine_assembly_matches_direct_assembly(arch):
    """Pencil evaluated at x equals a from-scratch assembly at x."""
    mesh, materials, pencil, _, _ = arch
    x = np.array([4000.0, 1500.0, 3000.0])
    k_affine, m_affine = pencil.evaluate(x)

    frozen = []
    values = dict(zip(pencil.names, x))
    for mat in materials:
        young = values.get("young:" + mat.name, mat.young)
        density = values.get("density:" + mat.name, mat.density)
        frozen.append(Material(mat.name, young=young, density=density, poisson=mat.poisson))
    # all parameters fixed: the pencil constant terms hold everything
    pencil2, _, _ = assemble_parametric(mesh, frozen)
    assert pencil2.n_parameters == 0
    scale_k = np.abs(k_affine.to_dense()).max()
    scale_m = np.abs(m_affine.to_dense()).max()
    k_direct, m_direct = pencil2.evaluate(np.zeros(0))
    assert np.abs(k_affine.to_dense() - k_direct.to_dense()).max() <= 1e-9 * scale_k
    assert np.abs(m_affine.to_dense() - m_direct.to_dense()).max() <= 1e-9 * scale_m


def test_arch_benchmark_geometry(arch):
    mesh, _, pencil, box, start = arch
    assert mesh.n_nodes == 440
    assert mesh.n_elements == 336
    assert len(mesh.free_dofs()) == 851
    assert pencil.names == ["young:pier_left", "density:pier_left", "young:pier_right"]
    assert np.array_equal(start, ARCH_TRUE)
    assert box.contains(start)


def test_vault_benchmark_geometry(vault):
    mesh, _, pencil, _, _ = vault
    assert mesh.n_elements == 200
    assert len(mesh.free_dofs()) == 1212
    assert pencil.n_parameters == 7


def test_arch_reference_frequencies(arch, arch_targets):
    """Frozen reference values; independent dense oracle cross-check."""
    _, _, pencil, _, _ = arch
    expected = np.array([18.3551, 28.3998, 49.7205, 50.3215, 65.0169])
    assert np.allclose(arch_targets, expected, atol=5e-4)
    lam = dense_smallest(pencil, ARCH_TRUE, 5)
    dense_freqs = np.sqrt(lam) / (2.0 * np.pi)
    assert np.allclose(arch_targets, dense_freqs, rtol=1e-8)


def test_mesh_save_load_round_trip(tmp_path, arch):
    mesh, _, _, _, _ = arch
    path = tmp_path / "arch.mesh"
    mesh.save(path)
    back = Mesh.load(path)
    assert back.n_nodes == mesh.n_nodes
    assert np.array_equal(back.elements, mesh.elements)
    assert np.array_equal(back.regions, mesh.regions)
    assert np.array_equal(back.fixed_dofs, mesh.fixed_dofs)
    assert np.allclose(back.coords, mesh.coords, atol=1e-12)


def test_mesh_validation_errors():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    elems = np.array([[0, 1, 2, 3]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            Mesh(np.where(coords == 1.0, bad, coords), elems, np.array([1]), np.array([0]))
    with pytest.raises(ValueError):
        Mesh(coords, elems, np.array([2]), np.array([0]))  # region ids not from 1
    with pytest.raises(ValueError):
        Mesh(coords, elems, np.array([1]), np.array([99]))  # dof out of range
    with pytest.raises(ValueError):
        Mesh(coords, np.array([[0, 1, 2]]), np.array([1]), np.array([0]))
    # a node in no element is allowed only with every dof fixed
    extra = np.vstack([coords, [[2.0, 0.0]]])
    with pytest.raises(ValueError, match=r"^node 5 \(1-based\) lies in no element"):
        Mesh(extra, elems, np.array([1]), np.array([0, 8]))
    assert Mesh(extra, elems, np.array([1]), np.array([0, 8, 9])).n_nodes == 5


ONE_QUAD = """# one unit square, clamped at node 1
dim 2
nodes 4
0 0
1 0
1 1
0 1
elements 1 quad4
1 2 3 4 1
constraints 2
1 x
1 y
"""


def test_mesh_load_reads_comments_and_blank_lines(tmp_path):
    path = tmp_path / "one.mesh"
    path.write_text(ONE_QUAD.replace("nodes 4\n", "\nnodes 4\n  # the corners\n"))
    mesh = Mesh.load(path)
    assert np.array_equal(mesh.coords, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(mesh.elements, [[0, 1, 2, 3]]) and np.array_equal(mesh.regions, [1])
    assert np.array_equal(mesh.fixed_dofs, [0, 1])


@pytest.mark.parametrize("old, new, message", [
    ("dim 2", "dim", "line 2: expected 1 fields, found 0"),  # missing header field
    ("elements 1 quad4", "elements 1", "line 8: expected 2 fields, found 1"),
    ("nodes 4", "nodes 4 5", "line 3: expected 1 fields, found 2"),  # extra field
    ("constraints 2", "fixed 2", "line 10: expected 'constraints', found 'fixed'"),
    ("1 2 3 4 1", "1 2 3 4", "line 9: expected 5 fields, found 4"),  # short row
    ("1 y\n", "", "mesh file ended early"),
    ("1 y", "1 z", "line 12: unknown axis 'z'"),
    ("quad4", "hex8", "line 8: element kind 'hex8' invalid for dim 2"),
    ("dim 2", "dim 4", "line 2: dim must be 2 or 3"),
    ("0 1", "0 one", "line 7: could not convert"),
    ("1 1", "1 nan", "line 6: node coordinates must be finite"),
    ("1 0", "inf 0", "line 5: node coordinates must be finite"),
    ("nodes 4", "nodes -1", "line 3: nodes count must not be negative, found -1"),
    ("elements 1", "elements -1", "line 8: elements count must not be negative, found -1"),
    ("constraints 2", "constraints -1", "line 10: constraints count must not be negative"),
    ("1 y\n", "1 y\n\n# a second mesh\ndim 2\n", "line 15: expected the end of the file, found 'dim'"),
    ("1 y\n", "1 y\n1 x\n", "line 13: expected the end of the file, found '1'"),  # one row too many
    ("nodes 4\n", "nodes 5\n2 0\n",  # a node ahead of the corners: node 5 is in none
     "node 5 (1-based) lies in no element and not all its dofs are fixed"),
])
def test_malformed_mesh_file_names_the_line(tmp_path, old, new, message):
    path = tmp_path / "bad.mesh"
    assert old in ONE_QUAD
    path.write_text(ONE_QUAD.replace(old, new, 1))
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        Mesh.load(path)


def test_assembly_requires_constraints():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = Mesh(coords, np.array([[0, 1, 2, 3]]), np.array([1]), np.array([], dtype=np.int64))
    mat = Material("m", young=1.0, density=1.0, poisson=0.0)
    with pytest.raises(ValueError):
        assemble_parametric(mesh, [mat])
