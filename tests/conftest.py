import numpy as np
import pytest

import distspec as ds
from distspec.cli import _oracle_distance_matrix


@pytest.fixture(scope="session")
def two_type_params():
    return ds.SbmParams(r=2, W=np.array([[5.0, 1.0], [1.0, 5.0]]),
                        pi=np.array([0.5, 0.5]), n=2000)


@pytest.fixture(scope="session")
def two_type_profile(two_type_params):
    return ds.derive_spectral_profile(two_type_params)


@pytest.fixture(scope="session")
def below_threshold_params():
    return ds.SbmParams(r=2, W=np.array([[4.0, 2.0], [2.0, 4.0]]),
                        pi=np.array([0.5, 0.5]), n=2000)


@pytest.fixture(scope="session")
def three_type_params():
    return ds.SbmParams(r=3, W=np.array([[9.0, 1.5, 1.5], [1.5, 9.0, 1.5], [1.5, 1.5, 9.0]]),
                        pi=np.full(3, 1.0 / 3.0), n=2000)


@pytest.fixture(scope="session")
def three_type_profile(three_type_params):
    return ds.derive_spectral_profile(three_type_params)


@pytest.fixture(scope="session")
def strong_params():
    # Well above threshold (tau ~ 4.2): detection visibly works at n = 2000.
    return ds.SbmParams(r=2, W=np.array([[11.0, 1.0], [1.0, 11.0]]),
                        pi=np.array([0.5, 0.5]), n=2000)


@pytest.fixture(scope="session")
def strong_profile(strong_params):
    return ds.derive_spectral_profile(strong_params)


def check_cycle_expansions(cycles, full_sizes, calls, cycle_bound):
    """The expansion contract of ``delta_radius_check``.  ``calls`` holds the
    ``sets`` argument of each ``_expand`` call in order (None for every
    vertex), ``full_sizes`` the layer sizes of all ``cycles``: one vertex
    expansion comes first, then set expansions only, no cycle is expanded
    twice, and every cycle whose exact radius is the cycle bound is among
    those expanded."""
    from distspec.spectral import _qc_radii

    assert calls[:1] == [None] and None not in calls[1:]
    expanded = [tuple(c) for sets in calls[1:] for c in sets]
    assert len(set(expanded)) == len(expanded)
    radii = _qc_radii(full_sizes)
    tight = {tuple(c) for c, radius in zip(cycles, radii) if radius == cycle_bound}
    assert tight <= set(expanded) and bool(tight) == bool(len(cycles))


def small_params(n, W=None, r=2):
    W = np.array([[5.0, 1.0], [1.0, 5.0]]) if W is None else np.asarray(W)
    return ds.SbmParams(r=r, W=W, pi=np.full(r, 1.0 / r), n=n)


@pytest.fixture
def path_graph():
    return ds.SparseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def square_graph():
    return ds.SparseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def two_triangles():
    # Two triangles sharing vertex 0.
    return ds.SparseGraph.from_edges(
        5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])


# --- Independent oracles -----------------------------------------------------

# Dense all-pairs BFS via scipy's csgraph (independent code path); the same
# function backs ``distspec verify oracles``.
apsp_distance_oracle = _oracle_distance_matrix


def simple_path_count_oracle(g: ds.SparseGraph, ell: int) -> np.ndarray:
    """Exhaustive simple-path counts of length exactly ell via networkx."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(map(tuple, g.edge_array()))
    counts = np.zeros((g.n, g.n), dtype=np.int64)
    for u in range(g.n):
        targets = set(range(g.n)) - {u}
        for path in nx.all_simple_paths(G, u, targets, cutoff=ell):
            if len(path) - 1 == ell:
                counts[u, path[-1]] += 1
    return counts


@pytest.fixture
def tols(monkeypatch):
    """The ``tol`` of every ARPACK run, in order."""
    import scipy.sparse.linalg

    seen = []
    eigsh = scipy.sparse.linalg.eigsh
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                        lambda *args, **kw: seen.append(kw["tol"]) or eigsh(*args, **kw))
    return seen
