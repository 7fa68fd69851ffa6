"""Built-in meshes: the node merge rule and the generated structures."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from femupdate import ConfigError, benchmarks


def _dict_merge(points):
    """Reference merge, one candidate at a time: key = Python-rounded
    coordinates in units of 1e-9; first appearance numbers the node."""
    ids, coords, node = {}, [], []
    for p in points:
        key = tuple(round(v * 1e9) for v in p)
        if key not in ids:
            ids[key] = len(coords)
            coords.append(p)
        node.append(ids[key])
    return np.array(coords), np.array(node)


@given(data=st.data(), dim=st.integers(2, 3))
def test_array_merge_matches_dict_reference(data, dim):
    # grid points with exact repeats, and repeats moved by up to 1e-10;
    # a grid step of 0.5e-9 or 1.5e-9 puts keys on ties (half to even)
    step = data.draw(st.sampled_from([0.37, 0.5e-9, 1.5e-9]))
    base = data.draw(st.lists(st.lists(st.integers(-30, 30), min_size=dim, max_size=dim),
                              min_size=1, max_size=30))
    picks = data.draw(st.lists(
        st.tuples(st.integers(0, len(base) - 1), st.integers(-4, 4), st.integers(0, dim - 1)),
        min_size=1, max_size=80,
    ))
    points = np.array([base[i] for i, _, _ in picks], dtype=np.float64) * step
    for row, (_, jitter, axis) in enumerate(picks):
        points[row, axis] += jitter * 2.5e-11
    coords, node = benchmarks._merge_nodes(points)
    expected_coords, expected_node = _dict_merge(points)
    assert np.array_equal(node, expected_node)
    assert np.array_equal(coords, expected_coords)
    cells = np.arange(len(points))[::-1].reshape(-1, 1)  # connectivity of any cell list
    assert np.array_equal(node[cells], expected_node[cells])


def _arch_corners(r, n_elements):
    """Element corner coordinates from the arch's formulas, element by element."""
    ntheta, nr, nx, ny = 76 * r, 3 * r, 6 * r, 9 * r
    radii, thetas = np.linspace(2.0, 2.5, nr + 1), np.linspace(0.0, np.pi, ntheta + 1)
    corners = []
    for k in range(nr):
        for i in range(ntheta):
            corners.append([(radii[a] * np.cos(thetas[b]), 4.0 + radii[a] * np.sin(thetas[b]))
                            for a, b in ((k, i), (k + 1, i), (k + 1, i + 1), (k, i + 1))])
    for x0, x1 in ((-3.0, -2.0), (2.0, 3.0)):
        xs, ys = np.linspace(x0, x1, nx + 1), np.linspace(0.0, 4.0, ny + 1)
        for j in range(nx):
            for l in range(ny):
                corners.append([(xs[a], ys[b])
                                for a, b in ((j, l), (j + 1, l), (j + 1, l + 1), (j, l + 1))])
    assert len(corners) == n_elements
    return np.array(corners)


@pytest.mark.parametrize("name, refine, n_nodes, digest", [
    ("arch", 1, 440, "1f09745449bf2b7231477a4a2a419157d13e6e22c86eef3cee4ddde77ae31b9e"),
    ("arch", 3, 3334, "bb013f5648718f9b04201dc2a33fcee684673b937f0e7ba675b6b92b5126c68a"),
    ("vault", 1, 440, "db819bb6afd89bfbb09658b4384260a89bc7eaf04002478a1bd24f9a0ba48345"),
    ("vault", 2, 2495, "fefe875cac0b538680828ecdb7102a7ba0dc7c82e259f95a2bb6fa0dbdefd49d"),
])
def test_builtin_meshes_are_pinned(name, refine, n_nodes, digest):
    # node numbering, connectivity, regions and constraints are part of
    # the benchmark: any change moves every stored result
    mesh, _ = benchmarks.benchmark(name, refine)
    h = hashlib.sha256()
    for a in (mesh.elements, mesh.regions, mesh.fixed_dofs):
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    assert mesh.n_nodes == n_nodes
    assert h.hexdigest() == digest
    corners = mesh.coords[mesh.elements]
    if name == "arch":
        expected = _arch_corners(refine, mesh.n_elements)
    else:  # each hex spans one cell of the 1.5 x 1.6 x 1.5 m / refine grid
        spacing = np.array([1.5, 1.6, 1.5]) / refine
        cell = np.rint(corners[:, 0] / spacing)
        offsets = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                            (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)])
        expected = (cell[:, None, :] + offsets) * spacing
    assert np.max(np.abs(corners - expected)) <= 1e-12


@pytest.mark.parametrize("name, refine", [("arch", 1), ("arch", 3), ("vault", 1), ("vault", 2)])
def test_the_size_limit_reads_the_exact_free_dof_count(name, refine, monkeypatch):
    n = len(benchmarks.benchmark(name, refine)[0].free_dofs())
    monkeypatch.setattr(benchmarks, "MAX_FREE_DOFS", n - 1)
    with pytest.raises(ValueError, match=r"^%d gives %d free dofs" % (refine, n)) as exc:
        benchmarks.benchmark(name, refine)
    assert not isinstance(exc.value, ConfigError)
