"""Built-in benchmark structures.

Two parametric test structures with known material layouts:

* ``generate_arch_on_piers``: a plane-strain masonry arch (semicircular
  annulus, radii 2.0-2.5 m, centered 4 m above ground) resting on two
  1 m wide, 4 m tall piers. Both pier bases are clamped and the
  horizontal displacement of the crown extrados node is restrained (a
  lateral crown tie), which is part of the benchmark definition. At the
  default resolution the mesh has 336 elements and 851 free dofs.

* ``generate_pillared_vault``: a 3D hex structure: four corner pillars
  (2x2 cells, 6 m tall) carrying a two-level perimeter drum (3 m each)
  closed by a stepped vault cap. The plan grid is 6x6 cells of
  1.5 m x 1.6 m; the slight rectangularity splits otherwise symmetric
  mode pairs. Pillar bases are clamped. 200 elements and 1212 free dofs
  at the default resolution.

Region numbering and material values are fixed; which properties are
free to update (and their bounds) is part of each benchmark. Each
generator predicts its free-dof count from ``refine`` in closed form and
refuses, before building any mesh array, a model above MAX_FREE_DOFS.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .fem import Material, Mesh

# the most free dofs a built-in benchmark may have: vault at refine 3
# (21,510) already peaks at about 570 MB resident, and the factor's fill
# grows faster than n; vault refine 4 (47,787) and arch refine 8 (44,461)
# are the largest accepted
MAX_FREE_DOFS = 50_000

# true values of the free parameters, in declaration order
ARCH_TRUE = np.array([5000.0, 2200.0, 4800.0])
ARCH_FAR_START = np.array([2000.0, 1100.0, 1100.0])
VAULT_TRUE = np.array([3000.0, 1800.0, 4000.0, 2000.0, 3500.0, 5000.0, 2200.0])


def _merge_nodes(points):
    """Merge candidate nodes that coincide to 1e-9 m.

    Keys are the coordinates in units of 1e-9, rounded half to even;
    nodes are numbered by first appearance and keep the coordinates of
    their first candidate. Returns (coords, node of each candidate).
    """
    keys = np.rint(points * 1e9).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    return points[first[order]], number[inverse.reshape(-1)]


def _refinement(refine, free_dofs):
    """int(refine), checked before any mesh is built: at least 1, and at
    most MAX_FREE_DOFS free dofs as ``free_dofs(r)`` predicts them."""
    r = int(refine)
    if r < 1:
        raise ValueError("refine must be a positive integer")
    n = free_dofs(r)
    if n > MAX_FREE_DOFS:
        raise ConfigError("%d gives %d free dofs, above the limit of %d (MAX_FREE_DOFS)"
                          % (r, n, MAX_FREE_DOFS), "run", "refine")
    return r


def _quads(ids):
    """Counterclockwise quads of a structured grid of node numbers, row-major."""
    return np.stack([ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]], axis=-1).reshape(-1, 4)


def generate_arch_on_piers(refine=1):
    """Plane-strain arch-on-piers benchmark.

    Parameters
    ----------
    refine : int
        Mesh refinement factor (>= 1); element counts grow with its
        square. refine=1 gives 336 elements and 851 free dofs.

    Returns
    -------
    (mesh, materials) with regions 1=arch, 2=left pier, 3=right pier.
    The free parameters are the left pier's Young modulus and density
    and the right pier's Young modulus.
    """
    r = _refinement(refine, lambda r: 672 * r * r + 182 * r - 3)
    ntheta, nr = 76 * r, 3 * r
    nx, ny = 6 * r, 9 * r
    radii = np.linspace(2.0, 2.5, nr + 1)[:, None]
    thetas = np.linspace(0.0, np.pi, ntheta + 1)
    blocks = [np.stack([radii * np.cos(thetas), 4.0 + radii * np.sin(thetas)], axis=-1)] + [
        np.stack(np.meshgrid(np.linspace(x0, x1, nx + 1), np.linspace(0.0, 4.0, ny + 1),
                             indexing="ij"), axis=-1)
        for x0, x1 in ((-3.0, -2.0), (2.0, 3.0))
    ]  # ring[k, i] at (radius k, angle i), then each pier's grid[j, l] at (x j, y l)
    coords, node = _merge_nodes(np.concatenate([g.reshape(-1, 2) for g in blocks]))
    ends = np.cumsum([g.shape[0] * g.shape[1] for g in blocks])
    grids = [ids.reshape(g.shape[:2]) for ids, g in zip(np.split(node, ends[:-1]), blocks)]
    elements = np.concatenate([_quads(g) for g in grids])
    regions = np.repeat([1, 2, 3], [nr * ntheta, nx * ny, nx * ny])
    base = np.concatenate([g[:, 0] for g in grids[1:]])  # clamped pier bases
    crown = np.argmin(np.sum((coords - [0.0, 6.5]) ** 2, axis=1))  # crown tie: horizontal restraint
    mesh = Mesh(coords, elements, regions, np.append((2 * base[:, None] + [0, 1]).ravel(), 2 * crown))
    materials = [
        Material("arch", young=3250.0, density=1800.0, poisson=0.2),
        Material(
            "pier_left",
            young=5000.0,
            density=2200.0,
            poisson=0.2,
            free_young=True,
            free_density=True,
            young_bounds=(1000.0, 9000.0),
            density_bounds=(1000.0, 3000.0),
        ),
        Material(
            "pier_right",
            young=4800.0,
            density=2100.0,
            poisson=0.2,
            free_young=True,
            young_bounds=(1000.0, 9000.0),
        ),
    ]
    return mesh, materials


def _vault_region(cx, cy, lz):
    """Region id of each coarse cell (cx, cy, lz) of the 6x6x11 grid, 0 if void."""
    ex, ey = np.minimum(cx, 5 - cx), np.minimum(cy, 5 - cy)  # cells from the plan's edge
    corner, ring = (ex <= 1) & (ey <= 1), np.minimum(ex, ey) == 0
    cap = np.minimum(ex, ey) >= lz - 8  # the cap steps in one cell per level
    return np.select([lz <= 3, lz <= 5, lz <= 7, lz <= 10], [4 * corner, 3 * ring, 2 * ring, cap])


def generate_pillared_vault(refine=1):
    """3D pillars-drum-vault benchmark.

    Returns (mesh, materials) with regions 1=vault, 2=upper drum,
    3=lower drum, 4=pillars. Free parameters: Young modulus of every
    region plus the densities of vault, upper drum, and pillars (the
    lower drum density stays fixed), 7 in total.
    """
    r = _refinement(refine, lambda r: ((600 * r + 576) * r + 45) * r - 9)
    lz, cy, cx = np.indices((11 * r, 6 * r, 6 * r)).reshape(3, -1)
    regions = _vault_region(cx // r, cy // r, lz // r)
    cells = np.column_stack([cx, cy, lz])[regions > 0]
    corner_offsets = np.array([
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
        (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
    ])
    corners = (cells[:, None, :] + corner_offsets) * np.array([1.5 / r, 1.6 / r, 1.5 / r])
    coords, node = _merge_nodes(corners.reshape(-1, 3))
    base = np.flatnonzero(coords[:, 2] == 0.0)  # clamped pillar base
    mesh = Mesh(coords, node.reshape(-1, 8), regions[regions > 0],
                (3 * base[:, None] + [0, 1, 2]).ravel())
    materials = [
        Material(
            "vault", young=3000.0, density=1800.0, poisson=0.25,
            free_young=True, free_density=True,
            young_bounds=(2000.0, 6000.0), density_bounds=(1600.0, 2400.0),
        ),
        Material(
            "drum_upper", young=4000.0, density=2000.0, poisson=0.25,
            free_young=True, free_density=True,
            young_bounds=(2000.0, 6000.0), density_bounds=(1600.0, 2400.0),
        ),
        Material(
            "drum_lower", young=3500.0, density=1900.0, poisson=0.25,
            free_young=True, young_bounds=(2000.0, 6000.0),
        ),
        Material(
            "pillars", young=5000.0, density=2200.0, poisson=0.25,
            free_young=True, free_density=True,
            young_bounds=(2000.0, 6000.0), density_bounds=(1600.0, 2400.0),
        ),
    ]
    return mesh, materials


def benchmark(name, refine=1):
    """Look up a built-in benchmark generator by name."""
    table = {
        "arch": generate_arch_on_piers,
        "vault": generate_pillared_vault,
    }
    if name not in table:
        raise ValueError("unknown benchmark '%s' (have: %s)" % (name, ", ".join(sorted(table))))
    return table[name](refine)
