"""Element matrices and parametric assembly against physics oracles."""

import numpy as np
import pytest
import scipy.linalg as sla

from femupdate import (
    Material,
    Mesh,
    UpdatingProblem,
    assemble_parametric,
    benchmarks,
    evaluate_full,
)
from femupdate.fem import MPA, _Scatter, _element_matrices

from conftest import ARCH_TRUE, dense_smallest


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
    # in a mesh the message names the element by its nodes, whichever
    # Poisson-ratio batch computed it
    coords = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 0.0], [2.0, 1.0]]
    mesh = Mesh(coords, [[0, 1, 2, 3], [1, 2, 5, 4]], [1, 2], [0, 1])  # second is clockwise
    materials = [Material("a", 1.0, 1.0, 0.2), Material("b", 1.0, 1.0, 0.3)]
    with pytest.raises(ValueError, match=r"nodes at \[\[1.0, 0.0\], \[1.0, 1.0\], \[2.0, 1.0\]"):
        assemble_parametric(mesh, materials)


@pytest.mark.parametrize("name, poissons", [
    ("arch", None), ("vault", None), ("arch", [0.2, 0.3, 0.2]), ("vault", [0.25, 0.1, 0.3, 0.25]),
])
def test_region_values_match_the_public_element_matrices_bit_for_bit(name, poissons):
    # one Gauss-point pass per Poisson ratio, over all its regions at once,
    # gives each region the bits of one batch's element matrices
    mesh, materials = benchmarks.benchmark(name)
    poissons = poissons or [mat.poisson for mat in materials]
    scatter = _Scatter(mesh)
    values = scatter.region_values(poissons)
    for rid, nu in enumerate(poissons, start=1):
        which = np.flatnonzero(mesh.regions == rid)
        coords = mesh.coords[mesh.elements[which]]
        ke, me = _element_matrices(coords, 1.0, nu, 1.0)
        k, m = scatter.assemble(which, ke, me)
        assert k.tobytes() == values[rid - 1][0].tobytes()
        assert m.tobytes() == values[rid - 1][1].tobytes()


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
    with pytest.raises(ValueError):
        Mesh(coords, elems, np.array([2]), np.array([0]))  # region ids not from 1
    with pytest.raises(ValueError):
        Mesh(coords, elems, np.array([1]), np.array([99]))  # dof out of range
    with pytest.raises(ValueError):
        Mesh(coords, np.array([[0, 1, 2]]), np.array([1]), np.array([0]))


def test_assembly_requires_constraints():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    mesh = Mesh(coords, np.array([[0, 1, 2, 3]]), np.array([1]), np.array([], dtype=np.int64))
    mat = Material("m", young=1.0, density=1.0, poisson=0.0)
    with pytest.raises(ValueError):
        assemble_parametric(mesh, [mat])
