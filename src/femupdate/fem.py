"""Meshes, isoparametric elements, and parametric assembly.

Supported elements are 4-node plane-strain quadrilaterals (2x2 Gauss
rule, unit thickness) and 8-node hexahedra (2x2x2 Gauss rule), both with
consistent mass. Element stiffness is proportional to the Young modulus
and element mass to the density, so each mesh region contributes one
stiffness and one mass block that scale linearly with that region's
material parameters. Assembly exploits this to build an affine matrix
pencil, region by region: one element pass gives the region's unit
stiffness and mass, scattered onto the pattern at once; a fixed property
adds them into the base matrices, a free one hands its nonzeros over as
one increment. Where each element entry lands is index arithmetic on
the sorted node pairs (``_Scatter``).

Units: coordinates in meters, Young modulus in MPa, density in kg/m^3.
Eigenvalues of the assembled pencil are squared circular frequencies in
(rad/s)^2.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .pencil import FeasibleBox, ParametricPencil
from .sparse import SymmetricPattern

MPA = 1.0e6  # Young modulus unit, Pa per MPa

# Voigt ordering: the (a, b) component pair of each strain and stress row
_VOIGT = {2: ((0, 0), (1, 1), (0, 1)), 3: ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2))}


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
        components, eliminated from the assembled operators. A node that
        lies in no element must have all its components here.
    """

    def __init__(self, coords, elements, regions, fixed_dofs):
        self.coords = np.asarray(coords, dtype=np.float64)
        self.elements = np.asarray(elements, dtype=np.int64)
        self.regions = np.asarray(regions, dtype=np.int64)
        self.fixed_dofs = np.unique(np.asarray(fixed_dofs, dtype=np.int64))
        if self.coords.ndim != 2 or self.coords.shape[1] not in (2, 3):
            raise ValueError("coords must be (n_nodes, 2) or (n_nodes, 3)")
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("node coordinates must be finite")
        if self.elements.ndim != 2 or self.elements.shape[1] != 2**self.dim:
            raise ValueError("expected quad4 (dim 2) or hex8 (dim 3) connectivity")
        if self.elements.min(initial=0) < 0 or self.elements.max(initial=-1) >= self.n_nodes:
            raise ValueError("element connectivity references unknown nodes")
        if len(self.regions) != len(self.elements):
            raise DimensionMismatchError("one region id per element required")
        ids = np.unique(self.regions)
        if ids.size and not np.array_equal(ids, np.arange(1, ids.size + 1)):
            raise ValueError("region ids must be contiguous starting at 1")
        if np.any((self.fixed_dofs < 0) | (self.fixed_dofs >= self.n_dofs)):
            raise ValueError("fixed dof index out of range")
        # a node in no element has no stiffness, so each of its dofs must be fixed
        loose = np.bincount(self.elements.ravel(), minlength=self.n_nodes) == 0
        loose &= np.bincount(self.fixed_dofs // self.dim, minlength=self.n_nodes) < self.dim
        if loose.any():
            raise ValueError("node %d (1-based) lies in no element and not all its dofs are fixed"
                             % (np.argmax(loose) + 1))

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

        Every line has exactly the fields shown, counts are nonnegative,
        and nothing follows the constraints. Any error is a ValueError that
        names the line where there is one.
        """
        with open(path) as fh:
            rows = iter([
                (i, fields) for i, text in enumerate(fh, start=1)
                if (fields := text.split()) and not fields[0].startswith("#")
            ])
        lineno = None

        def line(width, keyword=None):
            """The next line's fields after ``keyword``: exactly ``width``."""
            nonlocal lineno
            lineno, fields = next(rows, (None, None))
            if fields is None:
                raise ValueError("mesh file ended early, expected %s" % (keyword or "another row"))
            if keyword is not None:
                head, *fields = fields
                if head != keyword:
                    raise ValueError("expected '%s', found '%s'" % (keyword, head))
            if len(fields) != width:
                raise ValueError("expected %d fields, found %d" % (width, len(fields)))
            if keyword in ("nodes", "elements", "constraints") and int(fields[0]) < 0:
                raise ValueError("%s count must not be negative, found %s" % (keyword, fields[0]))
            return fields

        try:
            dim = int(line(1, "dim")[0])
            if dim not in (2, 3):
                raise ValueError("dim must be 2 or 3")
            coords = []
            for _ in range(int(line(1, "nodes")[0])):
                coords.append([float(v) for v in line(dim)])
                if not np.all(np.isfinite(coords[-1])):
                    raise ValueError("node coordinates must be finite")
            n_el, kind = line(2, "elements")
            nn = {"quad4": 4, "hex8": 8}.get(kind)
            if nn != 2**dim:
                raise ValueError("element kind '%s' invalid for dim %d" % (kind, dim))
            table = [[int(v) for v in line(nn + 1)] for _ in range(int(n_el))]
            axes = "xyz"[:dim]
            fixed = []
            for _ in range(int(line(1, "constraints")[0])):
                node, axis = line(2)
                if axis not in axes:
                    raise ValueError("unknown axis '%s'" % axis)
                fixed.append((int(node) - 1) * dim + axes.index(axis))
            lineno, extra = next(rows, (lineno, None))
            if extra is not None:
                raise ValueError("expected the end of the file, found '%s'" % extra[0])
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc) if lineno else str(exc)) from None
        table = np.array(table, dtype=np.int64).reshape(-1, nn + 1)
        return cls(coords, table[:, :nn] - 1, table[:, nn], np.asarray(fixed, dtype=np.int64))


def isotropic_elasticity(young, poisson, dim):
    """Isotropic elasticity matrix, plane strain in 2D (Voigt ordering)."""
    e, nu = float(young), float(poisson)
    if not 0.0 <= nu < 0.5:
        raise ValueError("Poisson ratio must lie in [0, 0.5)")
    normal = np.array([a == b for a, b in _VOIGT[dim]])
    d = np.where(np.outer(normal, normal), nu, 0.0)
    np.fill_diagonal(d, np.where(normal, 1.0 - nu, (1.0 - 2.0 * nu) / 2.0))
    return e / ((1.0 + nu) * (1.0 - 2.0 * nu)) * d


@functools.cache
def _reference(dim):
    """Once per element kind, at each 2-point Gauss point (x varying fastest):
    the outer product of the shape values and their reference gradients,
    corners counterclockwise round the square, in 3D bottom face first; and
    the strain gather: Voigt row (a, b), column node * dim + c takes that
    node's d/dx_b if c == a, its d/dx_a if c == b, else the zero after them."""
    g = 1.0 / np.sqrt(3.0)
    points = np.array([xi[::-1] for xi in itertools.product((-g, g), repeat=dim)])
    square, faces = ((-1, -1), (1, -1), (1, 1), (-1, 1)), itertools.product((-1, 1), repeat=dim - 2)
    signs = np.array([xy + z for z in faces for xy in square], dtype=np.float64)
    terms = 1.0 + signs * points[:, None]  # (point, corner, axis)
    shape = np.prod(terms, axis=2) / (2.0**dim)
    grads = [signs[:, a] * np.prod(np.delete(terms, a, axis=2), axis=2) for a in range(dim)]
    voigt, axes = np.array(_VOIGT[dim]), np.arange(dim)
    a, b = voigt[:, :1], voigt[:, 1:]
    comp = np.where(axes == a, b, np.where(axes == b, a, dim))  # (Voigt row, c)
    gather = (np.arange(2**dim)[:, None] * (dim + 1) + comp[:, None]).reshape(len(voigt), -1)
    out = shape[:, :, None] * shape[:, None], np.stack(grads, axis=2) / (2.0**dim), gather
    for array in out:
        array.flags.writeable = False  # shared by every call
    return out


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
    masses, grads, gather = _reference(dim)
    dndx = np.zeros((n_el, nn, dim + 1))  # physical gradients, then a zero
    rows = coords.transpose(0, 2, 1).reshape(n_el * dim, nn)  # all Jacobians in one product
    for mass, dndxi in zip(masses, grads):  # unit weights
        jac = (rows @ dndxi).reshape(n_el, dim, dim)
        det = np.linalg.det(jac)
        if not np.all(det > 0.0):  # NaN fails too
            raise ValueError(
                "singular element geometry (nonpositive Jacobian in the element "
                "with nodes at %s)" % coords[np.flatnonzero(~(det > 0.0))[0]].tolist()
            )
        dndx[:, :, :dim] = dndxi @ np.linalg.inv(jac)
        b = dndx.reshape(n_el, -1)[:, gather]  # strain matrices
        ke += np.multiply(np.matmul(b.transpose(0, 2, 1), d @ b, out=term), det[:, None, None], out=term)
        m += np.multiply(float(density) * mass, det[:, None, None], out=m_term)
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
    among the pattern's, or -1 where a constrained dof is involved. Both
    come from the sorted node pairs in one pass: the dof pattern's rows
    and columns from one repeat per dof and one gather through each
    node's range of pairs, the slots from one gather in element order.
    """

    def __init__(self, mesh):
        conn, dim, axes = mesh.elements, mesh.dim, np.arange(mesh.dim)
        n_el, nn = conn.shape
        # node pairs (a, b) that share an element, ascending, and each element's
        pairs, pair = np.unique(conn[:, :, None] * mesh.n_nodes + conn[:, None], return_inverse=True)
        a, b = np.divmod(pairs, mesh.n_nodes)
        first = np.searchsorted(a, np.arange(mesh.n_nodes + 1))
        free = mesh.free_dofs()
        index = np.full(mesh.n_dofs, -1, dtype=np.int64)  # free dof numbers, -1 if fixed
        index[free] = np.arange(free.size)
        # the all-dof pattern's row (a, p) runs over a's pairs (a, b), then q;
        # its position k holds entry k - shift of the pairs' flattened column
        # dofs, so dof pair ((a, p), (b, q)) sits at shift + dim * pair + q
        length = np.repeat(dim * np.diff(first), dim)
        shift = np.cumsum(length) - length - np.repeat(dim * first[:-1], dim)
        rows, back = np.repeat(np.stack([index, shift]), length, axis=1)
        cols = index[dim * b[:, None] + axes].ravel()[np.arange(rows.size) - back]
        # the pattern keeps the entries whose row and column are free; its
        # roots are the free dofs that share an element with a fixed one
        kept = np.flatnonzero((rows >= 0) & (cols >= 0))
        self.pattern = SymmetricPattern(
            free.size, np.searchsorted(rows[kept], np.arange(free.size + 1)), cols[kept],
            np.unique(rows[(rows >= 0) & (cols < 0)]),
        )
        slot = np.full(rows.size, -1, dtype=np.int64)
        slot[kept] = np.arange(kept.size)
        # element entry ((i, p), (j, q)) sits in row (i, p) at shift + dim * pair + q
        at = np.repeat(dim * pair.reshape(n_el, nn, 1, nn), dim, axis=3) + np.tile(axes, nn)
        self.slots = slot[at + shift[dim * conn[:, :, None] + axes][..., None]].reshape(n_el, -1)

    def assemble(self, which, *matrices):
        """Values on the pattern of the sum of the given elements' matrices,
        for each stack of matrices given. Entries at a fixed dof add into
        one bin past the pattern's, which is dropped."""
        nnz, slots = self.pattern.nnz, self.slots[which].ravel()
        slots = np.where(slots < 0, nnz, slots)
        return [np.bincount(slots, weights=m.ravel(), minlength=nnz + 1)[:nnz] for m in matrices]


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
    bases = np.zeros((2, scatter.pattern.nnz))  # K0, M0
    increments, names, start, bounds = [], [], [], []
    for rid, mat in enumerate(materials, start=1):  # one element pass per region
        which = np.flatnonzero(mesh.regions == rid)
        region = scatter.assemble(which, *_element_matrices(
            mesh.coords[mesh.elements[which]], 1.0, mat.poisson, 1.0))
        for k, prop in enumerate(("young", "density")):
            if getattr(mat, "free_" + prop):
                held = np.flatnonzero(region[k])
                pair = [(held[:0], np.zeros(0))] * 2  # a Young's modulus has no dM
                pair[k] = held, region[k][held]
                increments.append(pair)
                names.append("%s:%s" % (prop, mat.name))
                start.append(float(getattr(mat, prop)))
                bounds.append(getattr(mat, prop + "_bounds"))
            else:
                bases[k] += float(getattr(mat, prop)) * region[k]
        del region  # freed before the next region's element pass
    k_inc, m_inc = [[pair[k] for pair in increments] for k in (0, 1)]
    pencil = ParametricPencil.on_pattern(scatter.pattern, bases, k_inc, m_inc, names)
    lower, upper = np.array(bounds, dtype=np.float64).reshape(-1, 2).T.copy()
    return pencil, FeasibleBox(lower, upper), np.asarray(start, dtype=np.float64)
