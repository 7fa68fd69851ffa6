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
free to update (and their bounds) is part of each benchmark.
"""

from __future__ import annotations

import numpy as np

from .fem import Material, Mesh

# true values of the free parameters, in declaration order
ARCH_TRUE = np.array([5000.0, 2200.0, 4800.0])
ARCH_FAR_START = np.array([2000.0, 1100.0, 1100.0])
VAULT_TRUE = np.array([3000.0, 1800.0, 4000.0, 2000.0, 3500.0, 5000.0, 2200.0])


class _MeshBuilder:
    """Accumulates nodes (deduplicated by rounded coordinates) and cells."""

    def __init__(self, dim):
        self.dim = dim
        self._ids = {}  # rounded coordinates -> node
        self._seen = {}  # exact coordinates -> node
        self.coords = []
        self.elements = []
        self.regions = []
        self.fixed = set()

    def node(self, *xyz):
        nid = self._seen.get(xyz)  # exact repeats skip the rounding
        if nid is None:
            key = tuple([round(v * 1e9) for v in xyz])  # in units of 1e-9
            nid = self._ids.get(key)
            if nid is None:
                nid = len(self.coords)
                self._ids[key] = nid
                self.coords.append(xyz)
            self._seen[xyz] = nid
        return nid

    def element(self, nodes, region):
        self.elements.append(nodes)
        self.regions.append(region)

    def fix(self, node, axis):
        self.fixed.add(node * self.dim + axis)

    def nearest(self, *xyz):
        pts = np.asarray(self.coords)
        return int(np.argmin(np.sum((pts - np.asarray(xyz)) ** 2, axis=1)))

    def build(self):
        return Mesh(
            np.asarray(self.coords, dtype=np.float64),
            np.asarray(self.elements, dtype=np.int64),
            np.asarray(self.regions, dtype=np.int64),
            np.asarray(sorted(self.fixed), dtype=np.int64),
        )


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
    r = int(refine)
    if r < 1:
        raise ValueError("refine must be a positive integer")
    ntheta, nr = 76 * r, 3 * r
    nx, ny = 6 * r, 9 * r
    b = _MeshBuilder(dim=2)

    radii = np.linspace(2.0, 2.5, nr + 1)
    thetas = np.linspace(0.0, np.pi, ntheta + 1)
    ring = {}
    for k, rho in enumerate(radii):
        for i, th in enumerate(thetas):
            ring[(k, i)] = b.node(rho * np.cos(th), 4.0 + rho * np.sin(th))
    for k in range(nr):
        for i in range(ntheta):
            b.element(
                [ring[(k, i)], ring[(k + 1, i)], ring[(k + 1, i + 1)], ring[(k, i + 1)]],
                region=1,
            )

    for region, x0, x1 in ((2, -3.0, -2.0), (3, 2.0, 3.0)):
        xs = np.linspace(x0, x1, nx + 1)
        ys = np.linspace(0.0, 4.0, ny + 1)
        grid = {
            (j, l): b.node(xs[j], ys[l])
            for j in range(nx + 1)
            for l in range(ny + 1)
        }
        for j in range(nx):
            for l in range(ny):
                b.element(
                    [grid[(j, l)], grid[(j + 1, l)], grid[(j + 1, l + 1)], grid[(j, l + 1)]],
                    region,
                )
        for j in range(nx + 1):  # clamped base
            b.fix(grid[(j, 0)], 0)
            b.fix(grid[(j, 0)], 1)

    b.fix(b.nearest(0.0, 6.5), 0)  # crown tie: horizontal restraint

    mesh = b.build()
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
    """Region id of coarse cell (cx, cy, lz), or 0 if void."""
    corner = cx in (0, 1, 4, 5) and cy in (0, 1, 4, 5)
    ring = cx in (0, 5) or cy in (0, 5)
    if lz <= 3:
        return 4 if corner else 0
    if lz <= 5:
        return 3 if ring else 0
    if lz <= 7:
        return 2 if ring else 0
    if lz == 8:
        return 1
    if lz == 9:
        return 1 if 1 <= cx <= 4 and 1 <= cy <= 4 else 0
    if lz == 10:
        return 1 if 2 <= cx <= 3 and 2 <= cy <= 3 else 0
    return 0


def generate_pillared_vault(refine=1):
    """3D pillars-drum-vault benchmark.

    Returns (mesh, materials) with regions 1=vault, 2=upper drum,
    3=lower drum, 4=pillars. Free parameters: Young modulus of every
    region plus the densities of vault, upper drum, and pillars (the
    lower drum density stays fixed), 7 in total.
    """
    r = int(refine)
    if r < 1:
        raise ValueError("refine must be a positive integer")
    dx, dy, dz = 1.5 / r, 1.6 / r, 1.5 / r
    cells = []
    for lz in range(11 * r):
        for cy in range(6 * r):
            for cx in range(6 * r):
                reg = _vault_region(cx // r, cy // r, lz // r)
                if reg:
                    cells.append((cx, cy, lz, reg))

    corner_offsets = [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
        (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
    ]
    b = _MeshBuilder(dim=3)
    for cx, cy, lz, reg in cells:
        b.element(
            [b.node((cx + i) * dx, (cy + j) * dy, (lz + k) * dz) for i, j, k in corner_offsets],
            reg,
        )
    for nid, (_, _, z) in enumerate(b.coords):
        if z == 0.0:  # clamped pillar base
            for axis in range(3):
                b.fix(nid, axis)

    mesh = b.build()
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
