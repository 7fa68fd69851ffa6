"""Meshes, isoparametric elements, and parametric assembly.

Supported elements are 4-node plane-strain quadrilaterals (2x2 Gauss
rule, unit thickness) and 8-node hexahedra (2x2x2 Gauss rule), both with
consistent mass. Element stiffness is proportional to the Young modulus
and element mass to the density, so each mesh region contributes one
stiffness and one mass block that scale linearly with that region's
material parameters. Assembly exploits this to build an affine matrix
pencil: fixed-material contributions are accumulated into base matrices
and each free parameter gets one increment matrix.

Units: coordinates in meters, Young modulus in MPa, density in kg/m^3.
Eigenvalues of the assembled pencil are squared circular frequencies in
(rad/s)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .pencil import FeasibleBox, ParametricPencil
from .sparse import SparseSymMatrix, SymmetricPattern

MPA = 1.0e6  # Young modulus unit, Pa per MPa

_GP1D = 1.0 / np.sqrt(3.0)


@dataclass
class Material:
    """Material of one mesh region, with optional free parameters.

    ``young``/``density`` hold the current (or true) values; a property
    marked free becomes one optimization parameter with the given bounds.
    """

    name: str
    young: float
    density: float
    poisson: float
    free_young: bool = False
    free_density: bool = False
    young_bounds: tuple = (0.0, np.inf)
    density_bounds: tuple = (0.0, np.inf)


class Mesh:
    """Conforming mesh of one element kind with displacement constraints.

    Parameters
    ----------
    coords : (n_nodes, dim) float array
        Node coordinates; dim is 2 (quad4) or 3 (hex8).
    elements : (n_elements, 4 or 8) int array
        Zero-based node indices per element, counterclockwise (quad4) or
        bottom-face-then-top-face (hex8) ordering.
    regions : (n_elements,) int array
        One-based region id per element; ids must cover 1..n_regions.
    fixed_dofs : int array
        Global indices (node * dim + axis) of constrained displacement
        components, eliminated from the assembled operators.
    """

    def __init__(self, coords, elements, regions, fixed_dofs):
        self.coords = np.asarray(coords, dtype=np.float64)
        self.elements = np.asarray(elements, dtype=np.int64)
        self.regions = np.asarray(regions, dtype=np.int64)
        self.fixed_dofs = np.unique(np.asarray(fixed_dofs, dtype=np.int64))
        if self.coords.ndim != 2 or self.coords.shape[1] not in (2, 3):
            raise ValueError("coords must be (n_nodes, 2) or (n_nodes, 3)")
        nn = self.elements.shape[1] if self.elements.ndim == 2 else 0
        if (self.dim, nn) not in ((2, 4), (3, 8)):
            raise ValueError("expected quad4 (dim 2) or hex8 (dim 3) connectivity")
        if self.elements.min(initial=0) < 0 or self.elements.max(initial=-1) >= self.n_nodes:
            raise ValueError("element connectivity references unknown nodes")
        if len(self.regions) != len(self.elements):
            raise DimensionMismatchError("one region id per element required")
        ids = np.unique(self.regions)
        if ids.size and not np.array_equal(ids, np.arange(1, ids.size + 1)):
            raise ValueError("region ids must be contiguous starting at 1")
        if self.fixed_dofs.size and (
            self.fixed_dofs.min() < 0 or self.fixed_dofs.max() >= self.n_dofs
        ):
            raise ValueError("fixed dof index out of range")

    @property
    def dim(self):
        return self.coords.shape[1]

    @property
    def n_nodes(self):
        return self.coords.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    @property
    def n_regions(self):
        return int(self.regions.max()) if self.regions.size else 0

    @property
    def n_dofs(self):
        return self.n_nodes * self.dim

    @property
    def kind(self):
        return "quad4" if self.dim == 2 else "hex8"

    def free_dofs(self):
        """Indices of unconstrained displacement components, ascending."""
        mask = np.ones(self.n_dofs, dtype=bool)
        mask[self.fixed_dofs] = False
        return np.flatnonzero(mask)

    def save(self, path):
        """Write the mesh in the plain-text format read by ``Mesh.load``."""
        axes = "xyz"[: self.dim]
        with open(path, "w") as fh:
            fh.write("# femupdate mesh format 1\n")
            fh.write("dim %d\n" % self.dim)
            fh.write("nodes %d\n" % self.n_nodes)
            for row in self.coords:
                fh.write(" ".join("%.17g" % v for v in row) + "\n")
            fh.write("elements %d %s\n" % (self.n_elements, self.kind))
            for conn, reg in zip(self.elements, self.regions):
                fh.write(" ".join(str(v + 1) for v in conn) + " %d\n" % reg)
            fh.write("constraints %d\n" % self.fixed_dofs.size)
            for dof in self.fixed_dofs:
                fh.write("%d %s\n" % (dof // self.dim + 1, axes[dof % self.dim]))

    @classmethod
    def load(cls, path):
        """Read a mesh written by ``Mesh.save``.

        Format (1-based node ids, ``#`` starts a comment line)::

            dim <2|3>
            nodes <N>
            <x> <y> [<z>]            (N lines)
            elements <E> <quad4|hex8>
            <n1> ... <n4|n8> <region>  (E lines)
            constraints <C>
            <node> <x|y|z>           (C lines)
        """
        with open(path) as fh:
            lines = [
                (i + 1, ln.strip())
                for i, ln in enumerate(fh)
                if ln.strip() and not ln.strip().startswith("#")
            ]
        pos = 0

        def take(expected):
            nonlocal pos
            if pos >= len(lines):
                raise ValueError("mesh file ended early, expected '%s'" % expected)
            lineno, text = lines[pos]
            pos += 1
            parts = text.split()
            if parts[0] != expected:
                raise ValueError(
                    "line %d: expected '%s', found '%s'" % (lineno, expected, parts[0])
                )
            return lineno, parts[1:]

        def data_rows(count, width, what):
            nonlocal pos
            rows = []
            for _ in range(count):
                if pos >= len(lines):
                    raise ValueError("mesh file ended early inside %s" % what)
                lineno, text = lines[pos]
                pos += 1
                parts = text.split()
                if len(parts) != width:
                    raise ValueError(
                        "line %d: expected %d fields in %s row, found %d"
                        % (lineno, width, what, len(parts))
                    )
                rows.append((lineno, parts))
            return rows

        _, args = take("dim")
        dim = int(args[0])
        if dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        _, args = take("nodes")
        n_nodes = int(args[0])
        coords = np.array(
            [[float(v) for v in parts] for _, parts in data_rows(n_nodes, dim, "node")]
        )
        lineno, args = take("elements")
        n_el, kind = int(args[0]), args[1]
        nn = {"quad4": 4, "hex8": 8}.get(kind)
        if nn is None or (dim == 2) != (kind == "quad4"):
            raise ValueError("line %d: element kind '%s' invalid for dim %d" % (lineno, kind, dim))
        elements = np.empty((n_el, nn), dtype=np.int64)
        regions = np.empty(n_el, dtype=np.int64)
        for e, (lineno, parts) in enumerate(data_rows(n_el, nn + 1, "element")):
            elements[e] = [int(v) - 1 for v in parts[:nn]]
            regions[e] = int(parts[nn])
        _, args = take("constraints")
        n_con = int(args[0])
        axes = "xyz"[:dim]
        fixed = []
        for lineno, parts in data_rows(n_con, 2, "constraint"):
            if parts[1] not in axes:
                raise ValueError("line %d: unknown axis '%s'" % (lineno, parts[1]))
            fixed.append((int(parts[0]) - 1) * dim + axes.index(parts[1]))
        return cls(coords, elements, regions, np.asarray(fixed, dtype=np.int64))


def isotropic_elasticity(young, poisson, dim):
    """Isotropic elasticity matrix, plane strain in 2D (Voigt ordering)."""
    e, nu = float(young), float(poisson)
    if not 0.0 <= nu < 0.5:
        raise ValueError("Poisson ratio must lie in [0, 0.5)")
    c = e / ((1.0 + nu) * (1.0 - 2.0 * nu))
    g = (1.0 - 2.0 * nu) / 2.0
    if dim == 2:
        return c * np.array([[1.0 - nu, nu, 0.0], [nu, 1.0 - nu, 0.0], [0.0, 0.0, g]])
    d = np.zeros((6, 6))
    d[:3, :3] = nu
    np.fill_diagonal(d[:3, :3], 1.0 - nu)
    d[3:, 3:] = np.eye(3) * g
    return c * d


def _gauss_points(dim):
    pts = np.array([-_GP1D, _GP1D])
    if dim == 2:
        return np.array([[x, y] for y in pts for x in pts])
    return np.array([[x, y, z] for z in pts for y in pts for x in pts])


def _corner_signs(dim):
    if dim == 2:
        return np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=np.float64)
    return np.array(
        [
            [-1, -1, -1],
            [1, -1, -1],
            [1, 1, -1],
            [-1, 1, -1],
            [-1, -1, 1],
            [1, -1, 1],
            [1, 1, 1],
            [-1, 1, 1],
        ],
        dtype=np.float64,
    )


def _shape_values(xi, dim):
    signs = _corner_signs(dim)
    return np.prod(1.0 + signs * xi, axis=1) / (2.0**dim)


def _shape_gradients(xi, dim):
    signs = _corner_signs(dim)
    terms = 1.0 + signs * xi  # (nn, dim)
    grads = np.empty_like(signs)
    for a in range(dim):
        others = [b for b in range(dim) if b != a]
        grads[:, a] = signs[:, a] * np.prod(terms[:, others], axis=1)
    return grads / (2.0**dim)


def _strain_matrix(dndx, dim):
    n_el, nn, _ = dndx.shape
    if dim == 2:
        b = np.zeros((n_el, 3, 2 * nn))
        b[:, 0, 0::2] = dndx[:, :, 0]
        b[:, 1, 1::2] = dndx[:, :, 1]
        b[:, 2, 0::2] = dndx[:, :, 1]
        b[:, 2, 1::2] = dndx[:, :, 0]
        return b
    b = np.zeros((n_el, 6, 3 * nn))
    b[:, 0, 0::3] = dndx[:, :, 0]
    b[:, 1, 1::3] = dndx[:, :, 1]
    b[:, 2, 2::3] = dndx[:, :, 2]
    b[:, 3, 0::3] = dndx[:, :, 1]
    b[:, 3, 1::3] = dndx[:, :, 0]
    b[:, 4, 1::3] = dndx[:, :, 2]
    b[:, 4, 2::3] = dndx[:, :, 1]
    b[:, 5, 0::3] = dndx[:, :, 2]
    b[:, 5, 2::3] = dndx[:, :, 0]
    return b


def _element_matrices(coords, young, poisson, density):
    """Stiffness and consistent mass matrices of a batch of elements.

    One pass over the Gauss points: each point's Jacobian, determinant
    and physical gradients serve both matrices. The mass couples each
    displacement component only to itself, with the same values for all.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n_el, nn, dim = coords.shape
    d = isotropic_elasticity(young * MPA, poisson, dim)
    ke, term = np.zeros((2, n_el, nn * dim, nn * dim))
    m, m_term = np.zeros((2, n_el, nn, nn))  # of one displacement component
    for xi in _gauss_points(dim):  # unit weights
        dndxi = _shape_gradients(xi, dim)
        jac = coords.transpose(0, 2, 1) @ dndxi
        det = np.linalg.det(jac)
        if np.any(det <= 0.0):
            raise ValueError(
                "singular element geometry (nonpositive Jacobian in the element "
                "with nodes at %s)" % coords[np.flatnonzero(det <= 0.0)[0]].tolist()
            )
        b = _strain_matrix(dndxi @ np.linalg.inv(jac), dim)
        ke += np.multiply(np.matmul(b.transpose(0, 2, 1), d @ b, out=term), det[:, None, None], out=term)
        shape = _shape_values(xi, dim)
        m += np.multiply(float(density) * np.outer(shape, shape), det[:, None, None], out=m_term)
    np.multiply(np.add(ke, ke.transpose(0, 2, 1), out=term), 0.5, out=ke)  # symmetric part
    me = np.zeros_like(ke)
    for axis in range(dim):
        me[:, axis::dim, axis::dim] = m
    return ke, me


class _Scatter:
    """Where every element matrix entry lands in the assembled operators.

    The pattern is the free-dof graph of all elements: entry (i, j) is
    present when some element couples free dofs i and j. ``slots`` holds,
    per element, the position of each of its (nd * nd) matrix entries
    among the pattern's, or -1 where a constrained dof is involved.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        conn, dim, axes = mesh.elements, mesh.dim, np.arange(mesh.dim)
        n_el, nn = conn.shape
        # node pairs (a, b) that share an element, ascending, and each element's
        keys = np.repeat(conn, nn, axis=1) * mesh.n_nodes + np.tile(conn, (1, nn))
        pairs, pair = np.unique(keys, return_inverse=True)
        a, b = np.divmod(pairs, mesh.n_nodes)
        first = np.searchsorted(a, np.arange(mesh.n_nodes + 1))
        start, deg = first[a], np.diff(first)[a]
        # dof pair ((a, p), (b, q)) is entry pos[pair, p, q] of the all-dof
        # pattern, whose row (a, p) runs over a's pairs and then over q
        pos = (dim * (dim - 1) * start + dim * np.arange(pairs.size))[:, None, None]
        pos = pos + (dim * deg)[:, None, None] * axes[:, None] + axes
        free = mesh.free_dofs()
        index = np.full(mesh.n_dofs, -1, dtype=np.int64)
        index[free] = np.arange(free.size)
        rows, cols = np.empty((2, pos.size), dtype=np.int64)  # free dof numbers, -1 if fixed
        rows[pos] = index[(dim * a)[:, None, None] + axes[:, None]]
        cols[pos] = index[(dim * b)[:, None, None] + axes]
        # the pattern keeps the entries whose row and column are free
        kept = np.flatnonzero((rows >= 0) & (cols >= 0))
        self.pattern = SymmetricPattern(
            free.size, np.searchsorted(rows[kept], np.arange(free.size + 1)), cols[kept]
        )
        slot = np.full(pos.size, -1, dtype=np.int64)
        slot[kept] = np.arange(kept.size)
        slot = slot[pos]  # of each pair's dof pairs
        self.slots = slot[pair.reshape(n_el, nn, 1, nn, 1), axes[:, None, None], axes].reshape(n_el, -1)

    def assemble(self, which, *element_matrices):
        """Values on the pattern of the sum of the given elements' matrices,
        for each stack of matrices given."""
        slots = self.slots[which]
        keep = slots >= 0
        return [
            np.bincount(slots[keep], weights=m.reshape(slots.shape)[keep], minlength=self.pattern.nnz)
            for m in element_matrices
        ]

    def matrix(self, values):
        """The matrix with these values, on the entries where they are nonzero."""
        nonzero = values != 0.0
        return SparseSymMatrix(self.pattern.restrict(nonzero), values[nonzero])

    def region_values(self, poissons):
        """Unit-parameter [stiffness, mass] values of each region, given the
        regions' Poisson ratios: one element pass per distinct ratio."""
        mesh = self.mesh
        nu = np.asarray(poissons, dtype=np.float64)[mesh.regions - 1]
        values = [None] * mesh.n_regions
        for value in np.unique(nu):
            which = np.flatnonzero(nu == value)
            ke, me = _element_matrices(mesh.coords[mesh.elements[which]], 1.0, value, 1.0)
            for rid in np.unique(mesh.regions[which]):
                sel = mesh.regions[which] == rid
                values[rid - 1] = self.assemble(which[sel], ke[sel], me[sel])
        return values


def assemble_parametric(mesh, materials):
    """Assemble the affine stiffness/mass pencil of a meshed structure.

    Parameters
    ----------
    mesh : Mesh
        Must have at least one constrained dof (rigid modes removed).
    materials : list of Material
        One per region, in region-id order. Properties flagged free
        become pencil parameters, ordered by region and within a region
        Young modulus before density.

    Returns
    -------
    pencil : ParametricPencil
        Base matrices hold the fixed-material contributions; each free
        parameter owns a unit-parameter increment pair.
    box : FeasibleBox
        Bounds of the free parameters (from the material bounds).
    start : ndarray
        Current material values of the free parameters.
    """
    if mesh.n_regions != len(materials):
        raise ValueError(
            "mesh has %d regions but %d materials were given"
            % (mesh.n_regions, len(materials))
        )
    if mesh.fixed_dofs.size == 0:
        raise ValueError("mesh has no constrained dofs; rigid modes present")
    scatter = _Scatter(mesh)
    empty = scatter.matrix(np.zeros(scatter.pattern.nnz))
    k0 = np.zeros(scatter.pattern.nnz)
    m0 = np.zeros(scatter.pattern.nnz)
    k_inc, m_inc, names, start, lo, hi = [], [], [], [], [], []
    values = scatter.region_values([mat.poisson for mat in materials])
    for mat, (k_r, m_r) in zip(materials, values):
        if mat.free_young:
            k_inc.append(scatter.matrix(k_r))
            m_inc.append(empty)
            names.append("young:%s" % mat.name)
            start.append(float(mat.young))
            lo.append(float(mat.young_bounds[0]))
            hi.append(float(mat.young_bounds[1]))
        else:
            k0 += float(mat.young) * k_r
        if mat.free_density:
            k_inc.append(empty)
            m_inc.append(scatter.matrix(m_r))
            names.append("density:%s" % mat.name)
            start.append(float(mat.density))
            lo.append(float(mat.density_bounds[0]))
            hi.append(float(mat.density_bounds[1]))
        else:
            m0 += float(mat.density) * m_r
    k0 = scatter.matrix(k0)
    m0 = scatter.matrix(m0)
    pencil = ParametricPencil(k0, m0, k_inc, m_inc, names)
    box = FeasibleBox(np.asarray(lo), np.asarray(hi))
    return pencil, box, np.asarray(start, dtype=np.float64)
