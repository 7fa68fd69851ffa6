"""Affine stiffness/mass pencils, parameter boxes, and scaling.

A pencil holds base matrices K0, M0 and per-parameter increments so
that K(x) = K0 + sum_j x_j dK_j and M(x) = M0 + sum_j x_j dM_j. The
dependence is exactly linear; derivative matrices are the increments
themselves.

The sparsity pattern is fixed at construction: K(x) lives on a pattern
that holds K0 and the dK_j, and M(x) on one for M0 and the dM_j. One
builder (``_family``) makes each family from its terms as ascending
positions on one pattern with their values. The constructor finds a
given matrix's positions by its keys in the union of the patterns, and
so keeps stored zeros; ``on_pattern`` takes assembly's nonzeros on its
pattern. Either way a family keeps the entries that some term holds.
On its pattern, K(x) has the values
``k0 + Dk @ x``, where column j of the sparse (nnz, n_parameters)
matrix Dk holds the values of dK_j at its own entries; evaluation is
one sparse product, and every K(x) shares the pattern and with it the
ordering and kernel of its factorization. Each increment keeps its
own, usually much smaller, pattern for derivative products, with its
values stored once, in Dk. Products with an increment run on its
pattern's rows only (``SparseSymMatrix.local``), found once per
pencil, scaled copies included.

``scaled_by`` returns its last pencil again for an equal reference, so
solves from one start share it and its start's data (``objective._held``).
"""

from __future__ import annotations

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
    """A(x) = A0 + sum_j x_j dA_j on a pattern that holds every term: A0 is
    ``base`` there, column j of the sparse (nnz, n_parameters) ``columns``
    holds dA_j's values at its entries, and increment j keeps its own
    pattern, ``patterns[j]``, with those values."""

    def __init__(self, base, columns, patterns):
        self.pattern, self.base, self._columns = base.pattern, base, columns
        self.increments = [
            SparseSymMatrix(p, columns.data[columns.indptr[j]:columns.indptr[j + 1]])
            for j, p in enumerate(patterns)
        ]

    def at(self, x):
        return SparseSymMatrix(self.pattern, self.base.data + self._columns @ x)

    def scaled_by(self, reference):
        """The family over y = x / reference; shares every pattern."""
        cols = self._columns
        return _AffineFamily(self.base, sp.csc_array(
            (cols.data * np.repeat(reference, np.diff(cols.indptr)), cols.indices, cols.indptr),
            shape=cols.shape,
        ), [a.pattern for a in self.increments])


def _family(pattern, terms, patterns):
    """The family of A0 and the dA_j, each given as (ascending positions on
    ``pattern``, values), A0 first, on the entries that some term holds;
    ``patterns`` are the increments' own patterns."""
    union = np.zeros(pattern.nnz, dtype=bool)
    for at, _ in terms:
        union[at] = True
    kept = np.flatnonzero(union)
    place = np.empty(pattern.nnz, dtype=np.int64)  # the family's position of each kept entry
    place[kept] = np.arange(kept.size)
    base = np.zeros(kept.size)
    base[place[terms[0][0]]] = terms[0][1]
    columns = sp.csc_array((
        np.concatenate([np.zeros(0)] + [v for _, v in terms[1:]]),
        np.concatenate([np.zeros(0, dtype=np.int64)] + [place[at] for at, _ in terms[1:]]),
        np.cumsum([0] + [at.size for at, _ in terms[1:]], dtype=np.int64),
    ), shape=(kept.size, len(terms) - 1))
    return _AffineFamily(SparseSymMatrix(pattern.restrict(kept), base), columns, patterns)


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
        Parameter labels for reporting, one per parameter (default x0, x1, ...).
    """

    def __init__(self, k0, m0, k_increments, m_increments, names=None):
        if k0.n != m0.n:
            raise DimensionMismatchError("K0 and M0 dimensions disagree")
        if len(k_increments) != len(m_increments):
            raise DimensionMismatchError("increment lists must have equal length")
        for mat in list(k_increments) + list(m_increments):
            if mat.n != k0.n:
                raise DimensionMismatchError("increment dimension disagrees with K0")
        families = []
        for base, increments in ((k0, k_increments), (m0, m_increments)):
            terms = [base, *increments]
            union = union_pattern([a.pattern for a in terms])
            keys = union.keys()  # a term's keys, found among the union's, give its positions
            families.append(_family(union, [(np.searchsorted(keys, a.pattern.keys()), a.data)
                                            for a in terms], [a.pattern for a in increments]))
        self._build(families, names)

    @classmethod
    def on_pattern(cls, pattern, bases, k_increments, m_increments, names):
        """The pencil of value vectors on one pattern, as assembly has them:
        K0's and M0's in ``bases``, each dK_j and dM_j as (its ascending
        nonzero positions on the pattern, their values), empty for an
        all-zero term. Each family keeps the entries where one of its terms
        is nonzero: one nonzero pass over each base, then work in
        proportion to the kept entries."""
        out, families = cls.__new__(cls), []
        for base, increments in zip(bases, (k_increments, m_increments)):
            held = np.flatnonzero(base)
            families.append(_family(pattern, [(held, base[held]), *increments],
                                    [pattern.restrict(at) for at, _ in increments]))
        out._build(families, names)
        return out

    def _build(self, families, names):
        """Take the (K, M) families and one name per parameter, by default x0, x1, ..."""
        self._k, self._m = families
        self._scaled, self._start = None, {}  # (reference, scaled pencil); see _held
        self.names = ["x%d" % j for j in range(self.n_parameters)] if names is None else list(names)
        if len(self.names) != self.n_parameters:
            raise DimensionMismatchError(
                "%d names for %d parameters" % (len(self.names), self.n_parameters))

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
        shares this pencil's patterns and base matrices. An equal
        reference gets the last call's pencil again.
        """
        reference = np.asarray(reference, dtype=np.float64)
        if reference.shape != (self.n_parameters,):
            raise DimensionMismatchError("reference has wrong length")
        if np.any(reference <= 0.0):
            raise ValueError("scaling reference must be strictly positive")
        if self._scaled is not None and np.array_equal(self._scaled[0], reference):
            return self._scaled[1]
        out = ParametricPencil.__new__(ParametricPencil)
        out._build([self._k.scaled_by(reference), self._m.scaled_by(reference)], self.names)
        self._scaled = (reference.copy(), out)
        return out
