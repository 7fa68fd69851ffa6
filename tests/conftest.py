"""Shared fixtures: benchmark problems assembled once per session."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import settings

from femupdate import (
    Mesh,
    UpdatingProblem,
    assemble_parametric,
    benchmarks,
    evaluate_full,
)

# property tests draw the same examples on every run: no lucky seeds,
# no example database, no wall-clock deadline on a loaded machine
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

ARCH_TRUE = np.array(benchmarks.ARCH_TRUE)
ARCH_FAR_START = np.array(benchmarks.ARCH_FAR_START)
VAULT_TRUE = np.array(benchmarks.VAULT_TRUE)


@pytest.fixture(scope="session")
def arch():
    """(mesh, materials, pencil, box) for the arch benchmark."""
    mesh, materials = benchmarks.benchmark("arch")
    pencil, box, start = assemble_parametric(mesh, materials)
    return mesh, materials, pencil, box, start


@pytest.fixture(scope="session")
def arch_targets(arch):
    """Frequencies generated at the true arch parameters."""
    _, _, pencil, box, _ = arch
    gen = UpdatingProblem(pencil, box, measured=np.arange(1.0, 6.0))
    return evaluate_full(gen, ARCH_TRUE).frequencies


@pytest.fixture(scope="session")
def arch_problem(arch, arch_targets):
    _, _, pencil, box, _ = arch
    return UpdatingProblem(pencil, box, measured=arch_targets)


@pytest.fixture(scope="session")
def arch_soft_pier():
    """(problem, truth): the arch with the left pier's Young's modulus
    bounded below by 0, where K(x) is singular; targets at a soft pier."""
    mesh, materials = benchmarks.benchmark("arch")
    materials[1].young_bounds = (0.0, 9000.0)
    pencil, box, _ = assemble_parametric(mesh, materials)
    truth = np.array([1000.0, 2200.0, 4800.0])
    gen = UpdatingProblem(pencil, box, measured=np.arange(1.0, 6.0))
    return UpdatingProblem(pencil, box, measured=evaluate_full(gen, truth).frequencies), truth


@pytest.fixture(scope="session")
def vault():
    mesh, materials = benchmarks.benchmark("vault")
    pencil, box, start = assemble_parametric(mesh, materials)
    return mesh, materials, pencil, box, start


@pytest.fixture(scope="session")
def vault_problem(vault):
    _, _, pencil, box, _ = vault
    gen = UpdatingProblem(pencil, box, measured=np.arange(1.0, 11.0))
    targets = evaluate_full(gen, VAULT_TRUE).frequencies
    return UpdatingProblem(pencil, box, measured=targets, weights="relative")


@pytest.fixture(scope="session")
def arch_body():
    """Arch mesh with only the arch body's (E, rho) free.

    Well-conditioned two-parameter configuration used by the noise and
    weight-mode studies; piers stay at their nominal properties.
    """
    mesh, materials = benchmarks.benchmark("arch")
    for m in materials:
        m.free_young = m.free_density = False
    body = materials[0]
    body.free_young = body.free_density = True
    body.young_bounds = (1000.0, 9000.0)
    body.density_bounds = (1000.0, 3000.0)
    pencil, box, _ = assemble_parametric(mesh, materials)
    true = np.array([body.young, body.density])
    gen = UpdatingProblem(pencil, box, measured=np.arange(1.0, 6.0))
    clean = evaluate_full(gen, true).frequencies
    return pencil, box, true, clean


def dense_smallest(pencil, x, s):
    """Dense-eigensolver oracle for the s smallest pencil eigenvalues."""
    k, m = pencil.evaluate(x)
    return sla.eigh(
        k.to_dense(), m.to_dense(), eigvals_only=True, subset_by_index=[0, s - 1]
    )


def random_banded_spd(n, rng, bandwidth=3, shift=None):
    """Random symmetric positive definite matrix with a small band.

    Diagonal dominance guarantees definiteness; the band keeps the
    factorization sparse for large n.
    """
    from femupdate import SparseSymMatrix

    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    for off in range(1, bandwidth + 1):
        v = rng.uniform(-1.0, 1.0, n - off)
        rows.extend(range(off, n))
        cols.extend(range(n - off))
        vals.extend(v)
        diag[off:] += np.abs(v)
        diag[:-off] += np.abs(v)
    base = rng.uniform(0.5, 2.0, n) if shift is None else shift
    diag += base
    lower = sp.coo_array((vals, (rows, cols)), shape=(n, n))
    return SparseSymMatrix.from_full(lower + lower.T + sp.diags_array(diag))


def random_spd_pencil(n, rng, bandwidth=3):
    """A random SPD (K, M) pair for eigensolver tests."""
    k = random_banded_spd(n, rng, bandwidth)
    m = random_banded_spd(n, rng, max(1, bandwidth - 2))
    return k, m


def grid_mesh(shape, clamped):
    """Unit grid of quad4 (2 sides) or hex8 (3 sides) elements with every dof
    of the ``clamped`` nodes fixed, in two regions split along x."""
    dim = len(shape)
    nodes = np.arange(np.prod(np.add(shape, 1))).reshape(np.add(shape, 1))
    coords = np.stack(np.unravel_index(nodes.ravel(), nodes.shape), axis=1).astype(float)
    # corners in quad4 / hex8 order: counterclockwise, bottom face then top
    face = [(0, 0), (1, 0), (1, 1), (0, 1)]
    corners = face if dim == 2 else [(x, y, z) for z in (0, 1) for x, y in face]
    cells = np.stack(np.indices(shape), axis=-1).reshape(-1, dim)
    elements = np.stack([nodes[tuple((cells + c).T)] for c in corners], axis=1)
    regions = 1 + (cells[:, 0] >= max(1, shape[0] // 2))  # one region when 1 cell wide
    fixed = (dim * clamped[:, None] + np.arange(dim)).ravel()
    return Mesh(coords, elements, regions, fixed)
