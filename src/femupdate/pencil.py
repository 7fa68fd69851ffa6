"""Affine stiffness/mass pencils, parameter boxes, and scaling.

A pencil holds base matrices K0, M0 and per-parameter increments so
that K(x) = K0 + sum_j x_j dK_j and M(x) = M0 + sum_j x_j dM_j. The
dependence is exactly linear; derivative matrices are the increments
themselves.

The sparsity pattern is fixed at construction: K(x) lives on the union
pattern of K0 and the dK_j, and M(x) on that of M0 and the dM_j. On its
pattern, K(x) has the values ``k0 + Dk @ x``, where column j of the
sparse (nnz, n_parameters) matrix Dk holds the values of dK_j at its
own entries; evaluation is one sparse product, and every K(x) shares
the pattern and with it the ordering and kernel of its
factorization. Each increment keeps its own, usually much smaller,
pattern for derivative products, with its values stored once, in Dk.
Products with an increment run on its pattern's rows only
(``SparseSymMatrix.local``), found once per pencil, scaled copies included.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError
from .sparse import SparseSymMatrix, union_pattern


class FeasibleBox:
    """Componentwise parameter bounds a <= x <= b with a < b."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=np.float64)
        self.upper = np.asarray(upper, dtype=np.float64)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise DimensionMismatchError("bounds must be 1-d arrays of equal length")
        if not np.all(self.lower < self.upper):  # NaN fails too
            raise ValueError("every lower bound must be strictly below the upper")

    def __len__(self):
        return self.lower.size

    def contains(self, x, rtol=0.0):
        x = np.asarray(x)
        slack = rtol * (self.upper - self.lower)
        return bool(
            np.all(x >= self.lower - slack) and np.all(x <= self.upper + slack)
        )

    def midpoint(self):
        return 0.5 * (self.lower + self.upper)

    def scaled_by(self, reference):
        return FeasibleBox(self.lower / reference, self.upper / reference)


class _AffineFamily:
    """A(x) = A0 + sum_j x_j dA_j on the union pattern of its terms."""

    def __init__(self, base, increments):
        pattern, where = union_pattern([a.pattern for a in [base, *increments]])
        self.pattern = pattern
        base_data = np.zeros(pattern.nnz)
        base_data[where[0]] = base.data
        self.base = SparseSymMatrix(pattern, base_data)
        counts = [a.pattern.nnz for a in increments]
        self._columns = sp.csc_array(
            (
                np.concatenate([np.zeros(0)] + [a.data for a in increments]),
                np.concatenate([np.zeros(0, dtype=np.int64)] + where[1:]),
                np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
            ),
            shape=(pattern.nnz, len(increments)),
        )
        self._share_increments([a.pattern for a in increments])

    def _share_increments(self, patterns):
        cols = self._columns
        self.increments = [
            SparseSymMatrix(p, cols.data[cols.indptr[j]:cols.indptr[j + 1]])
            for j, p in enumerate(patterns)
        ]

    def at(self, x):
        return SparseSymMatrix(self.pattern, self.base.data + self._columns @ x)

    def scaled_by(self, reference):
        """The family over y = x / reference; shares every pattern."""
        out = copy.copy(self)
        cols = self._columns
        out._columns = sp.csc_array(
            (cols.data * np.repeat(reference, np.diff(cols.indptr)), cols.indices, cols.indptr),
            shape=cols.shape,
        )
        out._share_increments([a.pattern for a in self.increments])
        return out


class ParametricPencil:
    """Affine symmetric pencil (K(x), M(x)) with shared dimension.

    Parameters
    ----------
    k0, m0 : SparseSymMatrix
        Parameter-independent parts.
    k_increments, m_increments : list of SparseSymMatrix
        Per-parameter derivative matrices dK_j, dM_j (zero matrices are
        allowed; both lists have length n_parameters).
    names : list of str, optional
        Parameter labels for reporting.
    """

    def __init__(self, k0, m0, k_increments, m_increments, names=None):
        if k0.n != m0.n:
            raise DimensionMismatchError("K0 and M0 dimensions disagree")
        if len(k_increments) != len(m_increments):
            raise DimensionMismatchError("increment lists must have equal length")
        for mat in list(k_increments) + list(m_increments):
            if mat.n != k0.n:
                raise DimensionMismatchError("increment dimension disagrees with K0")
        self._k = _AffineFamily(k0, k_increments)
        self._m = _AffineFamily(m0, m_increments)
        self.names = list(names) if names is not None else [
            "x%d" % j for j in range(len(k_increments))
        ]

    @property
    def n(self):
        return self._k.pattern.n

    @property
    def n_parameters(self):
        return len(self._k.increments)

    def _check_x(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_parameters,):
            raise DimensionMismatchError(
                "expected %d parameters, got shape %s" % (self.n_parameters, x.shape)
            )
        return x

    def evaluate(self, x):
        """Matrices (K(x), M(x)) at parameter vector x."""
        x = self._check_x(x)
        return self._k.at(x), self._m.at(x)

    def derivative(self, j):
        """Increment pair (dK_j, dM_j); constant in x."""
        if not 0 <= j < self.n_parameters:
            raise IndexError("parameter index %d out of range" % j)
        return self._k.increments[j], self._m.increments[j]

    def scaled_by(self, reference):
        """Pencil over scaled parameters y = x / reference.

        The reference must be strictly positive componentwise; the
        returned pencil satisfies K_scaled(y) = K(reference * y) and
        shares this pencil's patterns and base matrices.
        """
        reference = np.asarray(reference, dtype=np.float64)
        if reference.shape != (self.n_parameters,):
            raise DimensionMismatchError("reference has wrong length")
        if np.any(reference <= 0.0):
            raise ValueError("scaling reference must be strictly positive")
        out = copy.copy(self)
        out._k = self._k.scaled_by(reference)
        out._m = self._m.scaled_by(reference)
        out.names = list(self.names)
        return out
