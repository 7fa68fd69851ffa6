"""Symmetric sparse matrices and their Cholesky factorization.

Matrices are stored in full compressed sparse row form on a shared
``SymmetricPattern``: matrices on one pattern share its index arrays and
differ only in their values. The factorization is an unpivoted Cholesky
P A Pᵀ = L Lᵀ: LAPACK's banded kernel on a Gibbs-Poole-Stockmeyer level
ordering, or SuperLU in symmetric mode without pivoting (U = diag(d) Lᵀ,
d > 0 for an SPD input) on a minimum-degree ordering. ``ordering`` picks
the kernel once per pattern, from its structure alone, by estimated cost.
The band factor is stored at half-bandwidth kd rounded up to a multiple
of 16 diagonals when that adds at most 10% storage (arch r3 44 -> 48,
vault r1 343 -> 352), else at kd: the back-solve's transposed sweep is
a chain of dependent kd-long dot products, which OpenBLAS runs fastest
at multiples of 16. One arch r3 ``dpbtrs`` took 0.46-0.50 ms at 44 and
0.33-0.37 ms at 48.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import reduce
from operator import add

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import splu

from .errors import DimensionMismatchError, NotPositiveDefiniteError

# The cost ratio n (kd + 1)² / nnz(L+U) up to which ``ordering`` takes the
# band kernel: dpbtrf took 0.03-0.04 ns per unit of n kd², SuperLU 50-80 ns
# per fill entry. Band wins at 906 (vault r1) and is no faster at 2168
# (vault r2), where it needs more memory; 1400 is their geometric mean.
BAND_COST_RATIO = 1400.0

# Grain of the band factor's stored half-bandwidth and the largest storage
# share padding to it may add (see the module docstring). Added diagonals stay
# zero, as Cholesky fill stays inside the envelope. One BLAS thread, arch r3
# at 44 -> 48: dpbtrs 0.46-0.50 -> 0.33-0.37 ms, dpbtrf 2.1-2.2 -> 2.5-2.8 ms;
# arch r1 (19 -> 32) and r2 (33 -> 48) solved no faster, factored ~20% slower.
BAND_GRAIN, BAND_PAD = 16, 0.1


def _band_width(kd):
    """Stored half-bandwidth of a band factor of half-bandwidth kd."""
    w = -(-kd // BAND_GRAIN) * BAND_GRAIN
    return w if w - kd <= BAND_PAD * (kd + 1) else kd


class SymmetricPattern:
    """Structurally symmetric sparsity pattern of an n-by-n matrix.

    Full CSR layout: ``indices[indptr[i]:indptr[i + 1]]`` are the sorted
    columns of row i. The pattern caches its ordering and kernel, its
    row support, and a scratch workspace it lends out (``workspace``).
    """

    def __init__(self, n, indptr, indices):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int32)
        self.indices = np.asarray(indices, dtype=np.int32)
        self._ordering = None
        self._support = None
        self._spare = []  # the workspace, while no loan holds it

    @property
    def nnz(self):
        return self.indices.size

    def restrict(self, mask):
        """The sub-pattern of the entries where ``mask`` (length nnz) holds."""
        kept = np.flatnonzero(mask)
        return SymmetricPattern(self.n, np.searchsorted(kept, self.indptr), self.indices[kept])

    def keys(self):
        """Entry keys row * n + col, ascending in storage order."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        return rows * self.n + self.indices

    def support(self):
        """(rows, indptr, indices): the rows that hold entries, ascending,
        and the pattern renumbered onto them. Computed on first use."""
        if self._support is None:
            held = np.diff(self.indptr) > 0  # structural symmetry: columns are rows
            rows, local = np.flatnonzero(held), np.cumsum(held, dtype=np.int32) - 1
            self._support = (rows, self.indptr[np.append(rows, self.n)], local[self.indices])
        return self._support

    @contextmanager
    def workspace(self, cols):
        """Lend an F-order (n, >= cols) float array for the ``with`` block.

        The array is kept here between loans, so repeated calls reuse its
        pages instead of having the allocator map them afresh. A nested or
        concurrent loan finds none here and gets a new array; so does one
        that needs more columns. The array last handed back is kept.
        """
        try:
            work = self._spare.pop()  # atomic: no two loans get one array
        except IndexError:
            work = None
        if work is None or work.shape[1] < cols:
            work = np.empty((self.n, cols), order="F")
        try:
            yield work
        finally:
            self._spare = [work]

    def ordering(self):
        """(perm, kd, pack): the pattern's ordering P and Cholesky kernel.

        Computed on first use, from the structure alone. The band kernel
        (``_band_ordering``, half-bandwidth kd) is used when its cost is
        estimated lower, n (kd + 1)² <= BAND_COST_RATIO nnz(L+U) for the
        fill of a minimum-degree SuperLU probe factorization; SuperLU
        otherwise (kd is None). Fill only adds entries, so the probe is
        skipped when the band kernel wins at zero fill, nnz(L+U) = nnz(A).
        ``pack`` maps a matrix's values into P A Pᵀ: (src, dst, w) scatter
        them into LAPACK's lower band storage of half-bandwidth
        w = ``_band_width(kd)``, transposed and flattened; (gather,
        indptr, indices) store them column-wise for SuperLU.
        """
        if self._ordering is None:
            ones = sp.csr_array(
                (np.ones(self.nnz), self.indices, self.indptr), shape=(self.n, self.n)
            )
            perm = _band_ordering(ones)
            # entry (r, c) of A is entry (at[r], at[c]) of P A Pᵀ
            rows, at = self.keys() // self.n, np.argsort(perm)
            i, j = at[rows], at[self.indices]
            kd = int(np.max(i - j, initial=0))
            lu = None
            if self.n * (kd + 1) ** 2 > BAND_COST_RATIO * self.nnz:
                dominant = ones + sp.diags_array(np.diff(self.indptr) + 1.0)
                lu = _splu(dominant.tocsc(), "MMD_AT_PLUS_A")
            if lu is None or self.n * (kd + 1) ** 2 <= BAND_COST_RATIO * lu.nnz:
                src, w = np.flatnonzero(i >= j), _band_width(kd)
                self._ordering = (perm, kd, (src, i[src] - j[src] + (w + 1) * j[src], w))
            else:
                perm, at = np.argsort(lu.perm_c), lu.perm_c
                i, j = at[rows], at[self.indices]
                # P A Pᵀ is symmetric, so its CSR arrays are also its CSC arrays
                gather = np.lexsort((j, i))
                indptr = np.searchsorted(i[gather], np.arange(self.n + 1)).astype(np.int32)
                self._ordering = (perm, None, (gather, indptr, j[gather].astype(np.int32)))
        return self._ordering


def _depths(graph, root):
    """Breadth-first distance from ``root`` of each node of a connected graph."""
    hop = breadth_first_order(graph, root, return_predecessors=True)[1]
    hop[root], depth = root, np.ones(hop.size, dtype=np.int64)
    depth[root] = 0
    while np.any(hop != root):  # pointer doubling: depth[i] is i's distance to hop[i]
        depth, hop = depth + depth[hop], hop[hop]
    return depth


def _component_order(graph):
    """Nodes of a connected graph in Gibbs-Poole-Stockmeyer level order."""
    n, deg = graph.shape[0], np.diff(graph.indptr)
    # pseudo-diameter u-v: from the last level of u, one node per degree;
    # a deeper one replaces u, else v is the narrowest
    du = _depths(graph, np.argmin(deg))
    while True:
        last, ends = np.flatnonzero(du == du.max()), []
        for c in last[np.unique(deg[last], return_index=True)[1]]:
            ends.append(_depths(graph, c))
            if ends[-1].max() > du.max():
                break
        else:
            break
        du = ends[-1]
    ecc = du.max()
    dv = ecc - min(ends, key=lambda d: np.bincount(d).max())  # v's levels, from u's end
    # nodes where the two agree keep that level; each other component takes,
    # largest first, the whole structure that keeps the widest level narrower
    level, free = du.copy(), np.flatnonzero(du != dv)
    count = np.bincount(du[du == dv], minlength=ecc + 1)
    label = connected_components(graph[free][:, free], directed=False)[1]
    parts = np.split(free[np.argsort(label, kind="stable")], np.cumsum(np.bincount(label))[:-1])
    for nodes in sorted(parts, key=len, reverse=True):
        a, b = (np.bincount(d[nodes], minlength=ecc + 1) for d in (du, dv))
        if np.max(count + b, where=b > 0, initial=0) < np.max(count + a, where=a > 0, initial=0):
            level[nodes] = dv[nodes]
        count += np.bincount(level[nodes], minlength=ecc + 1)
    # level by level, by the lowest number among neighbours on the level
    # before, then by degree; level 0 by distance from its lowest degree
    rows = np.repeat(np.arange(n), deg)
    back = np.flatnonzero(level[graph.indices] == level[rows] - 1)
    back = back[np.argsort(level[rows[back]], kind="stable")]
    edge_at = np.searchsorted(level[rows[back]], np.arange(ecc + 2))
    by_level = np.argsort(level, kind="stable")
    at = np.searchsorted(level[by_level], np.arange(ecc + 2))
    first = by_level[:at[1]]
    key, number = np.full(n, n), np.empty(n, dtype=np.int64)
    key[first] = _depths(graph, first[np.argmin(deg[first])])[first]
    for k in range(ecc + 1):
        e = back[edge_at[k]:edge_at[k + 1]]
        np.minimum.at(key, rows[e], number[graph.indices[e]])
        nodes = by_level[at[k]:at[k + 1]]
        by_level[at[k]:at[k + 1]] = nodes = nodes[np.lexsort((deg[nodes], key[nodes]))]
        number[nodes] = np.arange(at[k], at[k + 1])
    return by_level


def _band_ordering(graph):
    """Band ordering of a symmetric graph: each connected component in
    reversed Gibbs-Poole-Stockmeyer order (SIAM J. Numer. Anal. 13, 1976)."""
    label = connected_components(graph, directed=False)[1]
    parts = np.split(np.argsort(label, kind="stable"), np.cumsum(np.bincount(label))[:-1])
    return np.concatenate([
        nodes[_component_order(graph[nodes][:, nodes])] if nodes.size > 2 else nodes
        for nodes in parts
    ])[::-1]


def union_pattern(patterns):
    """Smallest pattern holding all given ones, and where each one sits in it.

    Returns the union and, per input pattern, the positions of its
    entries among the union's.
    """
    n = patterns[0].n
    ones = {
        id(p): sp.csr_array((np.ones(p.nnz), p.indices, p.indptr), shape=(n, n))
        for p in patterns
    }
    total = reduce(add, ones.values())  # how many patterns hold each entry
    total.sum_duplicates()
    # adding a pattern's ones keeps the union's entries in place and raises its own
    where = {key: np.flatnonzero((total + a).data > total.data) for key, a in ones.items()}
    return SymmetricPattern(n, total.indptr, total.indices), [where[id(p)] for p in patterns]


class SparseSymMatrix:
    """Square symmetric matrix stored in full CSR form on a pattern.

    ``data`` holds the values at the pattern's entries, in storage
    order, and must be symmetric: the value at (i, j) equals the one at
    (j, i). Matrices on one pattern share its index arrays.
    """

    def __init__(self, pattern, data):
        self.pattern = pattern
        self.data = data
        self._csr = None
        self._local = None

    @classmethod
    def from_full(cls, a, sym_tol=1e-10):
        """Build from a full symmetric matrix (dense or scipy sparse).

        The input must be symmetric to ``sym_tol`` relative to its largest
        entry; the stored matrix is its symmetric part (a + aᵀ) / 2.
        """
        a = sp.csc_array(a) if sp.issparse(a) else sp.csc_array(np.asarray(a))
        gap = abs(a - a.T)
        scale = abs(a).max() if a.nnz else 0.0
        if a.nnz and gap.nnz and gap.max() > sym_tol * max(scale, 1e-300):
            raise ValueError("matrix is not symmetric to tolerance %g" % sym_tol)
        full = sp.csr_array((a + a.T) * 0.5)  # a sum of CSC arrays: sorted, no duplicates
        return cls(SymmetricPattern(full.shape[0], full.indptr, full.indices), full.data)

    @property
    def n(self):
        return self.pattern.n

    @property
    def shape(self):
        return (self.n, self.n)

    def to_scipy(self):
        """Full symmetric matrix as CSR (shares this matrix's arrays)."""
        if self._csr is None:
            self._csr = sp.csr_array(
                (self.data, self.pattern.indices, self.pattern.indptr), shape=self.shape
            )
        return self._csr

    def to_dense(self):
        return self.to_scipy().toarray()

    def local(self):
        """(rows, A[rows][:, rows] as CSR) on the pattern's row support, so
        that xᵀ A x == x[rows]ᵀ (local @ x[rows])."""
        if self._local is None:
            rows, indptr, indices = self.pattern.support()
            self._local = rows, sp.csr_array((self.data, indices, indptr), shape=(rows.size,) * 2)
        return self._local

    def matvec(self, x):
        """Product A @ x for a vector or a stack of column vectors."""
        x = np.asarray(x)
        if x.shape[0] != self.n:
            raise DimensionMismatchError(
                "operand has leading dimension %d, expected %d" % (x.shape[0], self.n)
            )
        return self.to_scipy() @ x


def _splu(a, permc_spec):
    """SuperLU in symmetric mode without pivoting; singular -> not SPD."""
    try:
        options = dict(SymmetricMode=True)
        return splu(a, diag_pivot_thresh=0.0, permc_spec=permc_spec, options=options)
    except RuntimeError as exc:
        if "singular" in str(exc).lower():
            raise NotPositiveDefiniteError(0) from exc
        raise


class CholeskyFactor:
    """Cholesky factorization P A Pᵀ = L Lᵀ of an SPD sparse matrix.

    ``perm`` is the pattern's permutation P as an index vector:
    (P A Pᵀ)[i, j] == A[perm[i], perm[j]]. It and the kernel (band or
    SuperLU) belong to the matrix's pattern, so factorizations on one
    pattern share them; P A Pᵀ is factored in its natural order.
    """

    def __init__(self, matrix):
        perm, kd, pack = matrix.pattern.ordering()
        if kd is None:
            gather, indptr, indices = pack
            permuted = sp.csc_array((matrix.data[gather], indices, indptr), shape=matrix.shape)
            lu = _splu(permuted, "NATURAL")
            bad = np.flatnonzero(lu.U.diagonal() <= 0.0)
            if bad.size:
                raise NotPositiveDefiniteError(perm[bad[0]])
            self._solve = lu.solve
        else:
            src, dst, w = pack
            band = np.zeros((matrix.n, w + 1))
            band.reshape(-1)[dst] = matrix.data[src]
            cb, info = dpbtrf(band.T, lower=1, overwrite_ab=1)
            if info > 0:
                raise NotPositiveDefiniteError(perm[info - 1])
            if info < 0:
                raise ValueError("dpbtrf rejected argument %d" % -info)
            self._solve = lambda b: dpbtrs(cb, b, lower=1, overwrite_b=1)[0]
        self.n = matrix.n
        self.perm = perm

    def solve(self, b):
        """Solve A x = b for a vector or a stack of right-hand sides."""
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.n:
            raise DimensionMismatchError("right-hand side has leading dimension %d, expected %d"
                                         % (b.shape[0], self.n))
        x = np.empty_like(b)
        x[self.perm] = self._solve(b[self.perm])
        return x


def cholesky_factorize(matrix):
    """Factor an SPD SparseSymMatrix; raises NotPositiveDefiniteError."""
    return CholeskyFactor(matrix)

