"""Symmetric sparse matrices and their Cholesky factorization.

Matrices are stored in full compressed sparse row form on a shared
``SymmetricPattern``: matrices on one pattern share its index arrays and
differ only in their values. The factorization is an unpivoted sparse
Cholesky P A Pᵀ = L Lᵀ with a fill-reducing minimum-degree ordering P,
performed through SuperLU in symmetric mode (no numerical pivoting),
which for a symmetric positive definite input yields U = diag(d) Lᵀ
with d > 0. The ordering depends on the pattern alone, so it is
computed once per pattern and every factorization on that pattern
reuses it.
"""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np
import scipy.io
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import DimensionMismatchError, NotPositiveDefiniteError


class SymmetricPattern:
    """Structurally symmetric sparsity pattern of an n-by-n matrix.

    Full CSR layout: ``indices[indptr[i]:indptr[i + 1]]`` are the sorted
    columns of row i. The pattern caches its fill-reducing ordering.
    """

    def __init__(self, n, indptr, indices):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int32)
        self.indices = np.asarray(indices, dtype=np.int32)
        self._ordering = None

    @property
    def nnz(self):
        return self.indices.size

    def restrict(self, mask):
        """The sub-pattern of the entries where ``mask`` (length nnz) holds."""
        kept = np.concatenate(([0], np.cumsum(mask)))
        return SymmetricPattern(self.n, kept[self.indptr], self.indices[mask])

    def keys(self):
        """Entry keys row * n + col, ascending in storage order."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        return rows * self.n + self.indices

    def ordering(self):
        """(perm, gather, indptr, indices) of the permuted pattern P A Pᵀ.

        ``perm`` is the minimum-degree ordering; ``gather`` maps the
        values of a matrix on this pattern to the values of its
        symmetric permutation stored column-wise on (indptr, indices).
        Computed on first use by factoring a diagonally dominant matrix
        on the pattern: the ordering only sees the structure.
        """
        if self._ordering is None:
            ones = sp.csc_array(
                (np.ones(self.nnz), self.indices, self.indptr), shape=(self.n, self.n)
            )
            dominant = ones + sp.diags_array(np.diff(self.indptr) + 1.0)
            lu = _splu(dominant.tocsc(), "MMD_AT_PLUS_A")
            perm = np.argsort(lu.perm_c)
            slots = sp.csr_array(
                (np.arange(1.0, self.nnz + 1.0), self.indices, self.indptr),
                shape=(self.n, self.n),
            )[perm][:, perm]
            slots.sort_indices()
            # P A Pᵀ is symmetric, so its CSR arrays are also its CSC arrays
            gather = slots.data.astype(np.int64) - 1
            self._ordering = (
                perm,
                gather,
                slots.indptr.astype(np.int32),
                slots.indices.astype(np.int32),
            )
        return self._ordering


def union_pattern(patterns):
    """Smallest pattern holding all given ones, and where each one sits in it.

    Returns the union and, per input pattern, the positions of its
    entries among the union's.
    """
    distinct = list({id(p): p for p in patterns}.values())
    n = distinct[0].n
    total = reduce(add, [
        sp.csr_array((np.ones(p.nnz), p.indices, p.indptr), shape=(n, n))
        for p in distinct
    ])
    total.sum_duplicates()
    union = SymmetricPattern(n, total.indptr, total.indices)
    keys = union.keys()
    where = {id(p): np.searchsorted(keys, p.keys()) for p in distinct}
    return union, [where[id(p)] for p in patterns]


class SparseSymMatrix:
    """Square symmetric matrix stored in full CSR form on a pattern.

    Parameters
    ----------
    lower : scipy sparse matrix
        Lower triangle (entries with row >= col) of the matrix, in any
        scipy sparse format. Entries above the diagonal are rejected.
    """

    def __init__(self, lower):
        lower = sp.csc_array(lower)
        if lower.shape[0] != lower.shape[1]:
            raise DimensionMismatchError(
                "expected a square matrix, got shape %s" % (lower.shape,)
            )
        coo = sp.coo_array(lower)
        if np.any(coo.row < coo.col):
            raise ValueError("entries above the diagonal are not allowed")
        diag = sp.dia_array((lower.diagonal()[None, :], [0]), shape=lower.shape)
        full = (lower + lower.T - diag).tocsr()
        full.sum_duplicates()
        self._set(SymmetricPattern(full.shape[0], full.indptr, full.indices), full.data)

    @classmethod
    def on_pattern(cls, pattern, data):
        """Matrix with the given values on a pattern; no copy, no checks.

        ``data`` must be symmetric: the value at (i, j) equals the one
        at (j, i).
        """
        self = cls.__new__(cls)
        self._set(pattern, data)
        return self

    def _set(self, pattern, data):
        self.pattern = pattern
        self.data = data
        self._csr = None

    @classmethod
    def from_triplets(cls, n, rows, cols, values):
        """Build from lower-triangle COO triplets (duplicates are summed)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if np.any(rows < cols):
            raise ValueError("triplets must address the lower triangle")
        lower = sp.coo_array((values, (rows, cols)), shape=(n, n))
        return cls(lower.tocsc())

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
        sym = (a + a.T) * 0.5
        return cls(sp.tril(sym, format="csc"))

    @property
    def n(self):
        return self.pattern.n

    @property
    def shape(self):
        return (self.n, self.n)

    @property
    def nnz_lower(self):
        return self.lower.nnz

    @property
    def lower(self):
        """Lower triangle as CSC (a new matrix)."""
        return sp.tril(self.to_scipy(), format="csc")

    def to_scipy(self):
        """Full symmetric matrix as CSR (shares this matrix's arrays)."""
        if self._csr is None:
            self._csr = sp.csr_array(
                (self.data, self.pattern.indices, self.pattern.indptr), shape=self.shape
            )
        return self._csr

    def to_dense(self):
        return self.to_scipy().toarray()

    def matvec(self, x):
        """Product A @ x for a vector or a stack of column vectors."""
        x = np.asarray(x)
        if x.shape[0] != self.n:
            raise DimensionMismatchError(
                "operand has leading dimension %d, expected %d" % (x.shape[0], self.n)
            )
        return self.to_scipy() @ x

    def __matmul__(self, x):
        return self.matvec(x)

    def scaled(self, c):
        """New matrix c * A on the same pattern."""
        return SparseSymMatrix.on_pattern(self.pattern, self.data * float(c))


def _splu(a, permc_spec):
    """SuperLU in symmetric mode without pivoting; singular -> not SPD."""
    try:
        return splu(
            a,
            diag_pivot_thresh=0.0,
            permc_spec=permc_spec,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        if "singular" in str(exc).lower():
            raise NotPositiveDefiniteError(0) from exc
        raise


class CholeskyFactor:
    """Sparse Cholesky factorization P A Pᵀ = L Lᵀ of an SPD matrix.

    ``perm`` is the fill-reducing permutation P as an index vector:
    (P A Pᵀ)[i, j] == A[perm[i], perm[j]]. It belongs to the matrix's
    pattern, so factorizations on one pattern share it; the permuted
    matrix is factored in its natural order.
    """

    def __init__(self, matrix):
        if not isinstance(matrix, SparseSymMatrix):
            matrix = SparseSymMatrix.from_full(matrix)
        perm, gather, indptr, indices = matrix.pattern.ordering()
        permuted = sp.csc_array((matrix.data[gather], indices, indptr), shape=matrix.shape)
        lu = _splu(permuted, "NATURAL")
        d = lu.U.diagonal()
        bad = np.flatnonzero(d <= 0.0)
        if bad.size:
            raise NotPositiveDefiniteError(perm[bad[0]])
        self.n = matrix.n
        self._lu = lu
        self._sqrt_d = np.sqrt(d)
        self.perm = perm

    @property
    def L(self):
        """Lower Cholesky factor of the permuted matrix (CSC)."""
        return (self._lu.L @ sp.diags_array(self._sqrt_d)).tocsc()

    def solve(self, b):
        """Solve A x = b for a vector or a stack of right-hand sides."""
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.n:
            raise DimensionMismatchError(
                "right-hand side has leading dimension %d, expected %d"
                % (b.shape[0], self.n)
            )
        x = np.empty_like(b)
        x[self.perm] = self._lu.solve(b[self.perm])
        return x


def cholesky_factorize(matrix):
    """Factor an SPD SparseSymMatrix; raises NotPositiveDefiniteError."""
    return CholeskyFactor(matrix)


def write_matrix_market(path, matrix, comment=""):
    """Write a SparseSymMatrix (or array) to a Matrix Market file."""
    if isinstance(matrix, SparseSymMatrix):
        scipy.io.mmwrite(path, matrix.lower, comment=comment, symmetry="symmetric")
    else:
        scipy.io.mmwrite(path, np.asarray(matrix), comment=comment)


def read_matrix_market(path):
    """Read a symmetric Matrix Market file as a SparseSymMatrix.

    Dense (array-format) files are returned as plain ndarrays.
    """
    a = scipy.io.mmread(path)
    if isinstance(a, np.ndarray):
        return a
    return SparseSymMatrix.from_full(a.tocsc())
