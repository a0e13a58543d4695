import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distspec as ds
import distspec.graph as graph
from distspec.adversary import (
    AtOrBelowThreshold,
    BudgetExceeded,
    GreedyExhausted,
    InconsistentEdit,
)
from distspec.util import make_rng

from conftest import small_params


class TestPerturbation:
    def test_affected_accounting(self):
        p = ds.Perturbation(added_edges=((0, 1), (2, 3)), removed_edges=((1, 4),),
                            gamma_budget=5)
        assert p.affected == {0, 1, 2, 3, 4}

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            ds.Perturbation(added_edges=((0, 1), (2, 3)), removed_edges=(),
                            gamma_budget=3)
        with pytest.raises(ValueError, match="^gamma must be a nonnegative integer, got -1$"):
            ds.Perturbation(added_edges=(), removed_edges=(), gamma_budget=-1)

    def test_tuple_edits_name_their_first_non_integer_id(self):
        mixed = [(0, 1), (np.int32(2), np.uint8(3)), (4, 5.0), (True, 6), (7, "8")]
        with pytest.raises(ValueError, match="^vertex ids must be integers, got 5.0$"):
            ds.Perturbation(added_edges=mixed, removed_edges=(), gamma_budget=9)
        p = ds.Perturbation(added_edges=mixed[:2], removed_edges=(), gamma_budget=9)
        assert p.added_edges == ((0, 1), (2, 3))
        assert all(type(v) is int for e in p.added_edges for v in e)

    def test_inconsistent_edits(self):
        with pytest.raises(InconsistentEdit):
            ds.Perturbation(added_edges=((0, 1),), removed_edges=((0, 1),),
                            gamma_budget=4)
        with pytest.raises(InconsistentEdit):
            ds.Perturbation(added_edges=((2, 2),), removed_edges=(), gamma_budget=4)

    def test_apply_validates_against_graph(self, path_graph):
        with pytest.raises(InconsistentEdit):
            ds.apply_perturbation(path_graph, ds.Perturbation(
                added_edges=((0, 1),), removed_edges=(), gamma_budget=2))
        with pytest.raises(InconsistentEdit):
            ds.apply_perturbation(path_graph, ds.Perturbation(
                added_edges=(), removed_edges=((0, 2),), gamma_budget=2))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 9), st.data())
    def test_apply_matches_edge_set_reference(self, n, data):
        # Reference: the edit applied to a Python set of (u, v) tuples, with
        # the same checks in the same order.
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        g = ds.SparseGraph.from_edges(n, sorted(edges))
        edit = st.tuples(st.integers(-2, n + 2), st.integers(-2, n + 2))
        if pairs:
            edit = edit | st.sampled_from(pairs)
        try:
            p = ds.Perturbation(data.draw(st.lists(edit, max_size=4)),
                                data.draw(st.lists(edit, max_size=4)), gamma_budget=30)
        except InconsistentEdit:
            return
        want = None
        for e in p.added_edges:
            if e in edges:
                want = f"edge {e} to add is already present"
            elif not (0 <= e[0] < n and 0 <= e[1] < n):
                want = f"edge {e} out of range"
            if want:
                break
        for e in p.removed_edges if want is None else ():
            if e not in edges:
                want = f"edge {e} to remove is absent"
                break
        if want is not None:
            with pytest.raises(InconsistentEdit) as err:
                ds.apply_perturbation(g, p)
            assert str(err.value) == want
        else:
            expected = (edges - set(p.removed_edges)) | set(p.added_edges)
            assert ds.apply_perturbation(g, p).edge_set() == expected

    def test_empty_perturbation_is_identity(self, path_graph):
        p = ds.Perturbation(added_edges=(), removed_edges=(), gamma_budget=0)
        assert ds.apply_perturbation(path_graph, p).edge_set() == path_graph.edge_set()

    def test_remove_edge_affects_both_endpoints(self, path_graph):
        p = ds.Perturbation(added_edges=(), removed_edges=((1, 2),), gamma_budget=2)
        g2 = ds.apply_perturbation(path_graph, p)
        assert p.affected == {1, 2}
        assert not g2.has_edge(1, 2)

    def test_mixed_edit_affected_union(self):
        g = ds.SparseGraph.from_edges(12, [(8, 9), (10, 11)])
        clique = tuple((i, j) for i in range(5) for j in range(i + 1, 5))
        p = ds.Perturbation(added_edges=clique, removed_edges=((8, 9), (10, 11)),
                            gamma_budget=9)
        assert p.affected == set(range(5)) | {8, 9, 10, 11}
        g2 = ds.apply_perturbation(g, p)
        assert g2.m == 10

    def test_inverse_round_trip(self):
        sample = ds.sample_graph(small_params(200), 4)
        g2, p = ds.plant_clique(sample.graph, 6, seed=11)
        inverse = ds.Perturbation(p.removed_edges, p.added_edges, p.gamma_budget)
        back = ds.apply_perturbation(g2, inverse)
        assert back.edge_set() == sample.graph.edge_set()

    def test_json_round_trip(self):
        p = ds.Perturbation(added_edges=((0, 1),), removed_edges=((2, 5),),
                            gamma_budget=4)
        doc = p.to_json()
        assert doc == {"gamma": 4, "add": [[0, 1]], "remove": [[2, 5]]}
        q = ds.Perturbation.from_json(doc)
        assert q.added_edges == p.added_edges
        assert q.removed_edges == p.removed_edges

    @pytest.mark.parametrize("doc, match", [
        ({"add": [[0, 1]]}, "^missing perturbation key 'gamma'$"),
        ({"gamma": 2, "add": [[1]]}, r"^edits must be \(u, v\) pairs"),
        ({"gamma": 2, "remove": [[0, 1, 2]]}, r"^edits must be \(u, v\) pairs"),
        ({"gamma": 2, "add": [0, 1]}, r"^edits must be \(u, v\) pairs"),
        ({"gamma": 2, "add": [[0, 1], [2]]}, r"^edits must be \(u, v\) pairs, got the row \[2\]$"),
        ({"gamma": 2, "remove": [[0, 1], [2, 3, 4]]},
         r"^edits must be \(u, v\) pairs, got the row \[2, 3, 4\]$"),
        ({"gamma": 2, "add": 5}, r"^add must be a list of \(u, v\) pairs"),
        ({"gamma": 2, "remove": {"0": 1}}, r"^remove must be a list of \(u, v\) pairs")],
        ids=["no-gamma", "short-pair", "long-pair", "flat", "ragged", "ragged-long", "add-int",
             "remove-object"])
    def test_from_json_rejects_malformed_documents(self, doc, match):
        with pytest.raises(ValueError, match=match):
            ds.Perturbation.from_json(doc)


class TestPlantClique:
    def test_single_vertex_changes_nothing(self, path_graph):
        g2, p = ds.plant_clique(path_graph, 1, seed=2)
        assert g2.edge_set() == path_graph.edge_set()
        assert p.added_edges == ()

    def test_triangle_on_empty_graph(self):
        g = ds.SparseGraph.from_edges(6, [])
        g2, p = ds.plant_clique(g, 3, seed=2)
        assert g2.m == 3
        assert len(p.affected) == 3

    def test_edge_count_audit(self, two_type_params):
        sample = ds.sample_graph(two_type_params, 3)
        gamma = 10
        g2, p = ds.plant_clique(sample.graph, gamma, seed=5)
        chosen = sorted(p.affected)
        existing = sum(1 for i in range(len(chosen)) for j in range(i + 1, len(chosen))
                       if sample.graph.has_edge(chosen[i], chosen[j]))
        assert len(p.added_edges) == gamma * (gamma - 1) // 2 - existing
        assert len(p.affected) <= gamma
        assert g2.m == sample.graph.m + len(p.added_edges)

    def test_determinism(self):
        sample = ds.sample_graph(small_params(100), 1)
        _, p1 = ds.plant_clique(sample.graph, 5, seed=9)
        _, p2 = ds.plant_clique(sample.graph, 5, seed=9)
        assert p1.added_edges == p2.added_edges

    @staticmethod
    def assert_matches_has_edge_reference(g, edges, gamma, seed):
        # Reference: the pairs of the chosen set, in order, that are not yet edges.
        chosen = np.sort(make_rng(seed).choice(g.n, size=gamma, replace=False)).tolist()
        want = tuple((u, v) for i, u in enumerate(chosen) for v in chosen[i + 1:]
                     if not g.has_edge(u, v))
        g2, p = ds.plant_clique(g, gamma, seed)
        assert p.added_edges == want
        assert all(type(x) is int for e in p.added_edges for x in e)
        assert p.affected == {x for e in want for x in e}
        ref = ds.SparseGraph.from_edges(g.n, list(edges) + list(want))
        for got, expected in ((g2.indptr, ref.indptr), (g2.indices, ref.indices)):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        return p

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 24), st.data())
    def test_matches_has_edge_reference(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(data.draw(st.sets(st.sampled_from(pairs)))) if pairs else []
        self.assert_matches_has_edge_reference(ds.SparseGraph.from_edges(n, edges), edges,
                                               data.draw(st.integers(0, n)),
                                               data.draw(st.integers(0, 2**32)))

    def test_a_chosen_set_that_is_already_a_clique_adds_nothing(self):
        # Every 5-subset of the complete graph on 7 vertices is already a clique.
        edges = [(u, v) for u in range(7) for v in range(u + 1, 7)]
        g = ds.SparseGraph.from_edges(7, edges)
        p = self.assert_matches_has_edge_reference(g, edges, 5, 3)
        assert p.added_edges == () and p.affected == frozenset()


class TestRobustnessBudget:
    def test_example_values(self, two_type_profile):
        safe, brk = ds.robustness_budget(two_type_profile, 4, 2000)
        assert safe == pytest.approx((4.0 / 3.0) ** 4 / np.log(2000), rel=1e-9)
        assert brk == pytest.approx((4.0 / 3.0) ** 4, rel=1e-12)

    def test_power_of_two(self):
        params = small_params(100, W=[[7.0, 1.0], [1.0, 7.0]])  # mu2 = 3, alpha = 4
        prof = ds.derive_spectral_profile(params)
        assert prof.tau == pytest.approx(2.25)
        _, brk = ds.robustness_budget(prof, 2, 100)
        assert brk == pytest.approx(2.25**2)

    def test_below_threshold_raises(self, below_threshold_params):
        prof = ds.derive_spectral_profile(below_threshold_params)
        with pytest.raises(AtOrBelowThreshold):
            ds.robustness_budget(prof, 3, 1000)


class TestQkBound:
    def test_path_graph_single_vertex(self, path_graph):
        sizes = ds.set_shell_sizes(path_graph, [1], 2)
        exact, _ = ds.qc_bound(sizes)
        assert ds.qk_bound(path_graph, [1], 2) == pytest.approx(exact)

    def test_whole_vertex_set_degenerate(self, path_graph):
        bound = ds.qk_bound(path_graph, list(range(4)), 2)
        assert bound >= 4.0

    def test_dominates_measured_difference(self, two_type_params):
        sample = ds.sample_graph(two_type_params, 2)
        dl = ds.distance_matrix(sample.graph, 4)
        for gamma in (3, 5):
            g2, p = ds.plant_clique(sample.graph, gamma, seed=gamma)
            if not p.affected:
                continue
            diff = ds.difference_matrix(ds.distance_matrix(g2, 4), dl)
            rho = 0.0
            if diff.nnz:
                pairs = ds.top_eigenpairs(diff, sample.graph.n, 2, seed=1)
                rho = max(abs(q.value) for q in pairs)
            bound = ds.qk_bound(sample.graph, sorted(p.affected), 4)
            assert rho <= bound + 1e-9


class TestRogueCertificate:
    def test_star_root(self):
        k = 9
        star = ds.SparseGraph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])
        params = small_params(k + 1)
        prof = ds.derive_spectral_profile(params)
        cert = ds.build_rogue_certificate(star, prof, 1, 1)
        assert cert.shell_size == k
        assert cert.rayleigh == pytest.approx(np.sqrt(k))
        assert cert.closed_form == pytest.approx(2 * np.sqrt(k))

    def test_all_pairs_exact_attains_closed_form(self):
        # Complete bipartite generator: every set-to-shell pair at distance 1,
        # so the quadratic form reaches the closed form exactly.
        gamma, m = 3, 12
        edges = [(i, gamma + j) for i in range(gamma) for j in range(m)]
        g = ds.SparseGraph.from_edges(gamma + m, edges)
        prof = ds.derive_spectral_profile(small_params(gamma + m))
        cert = ds.build_rogue_certificate(g, prof, 1, gamma)
        assert cert.rayleigh >= 0.5 * cert.closed_form - 1e-9
        assert cert.gamma + cert.shell_size == len(cert.support)

    def test_vector_invariants(self, two_type_params, two_type_profile):
        sample = ds.sample_graph(two_type_params, 4)
        cert = ds.build_rogue_certificate(sample.graph, two_type_profile, 3, 3, seed=4)
        v = cert.vector(two_type_params.n)
        assert np.dot(v, v) == pytest.approx(2.0, abs=1e-10)
        assert len(cert.support) == cert.gamma + cert.shell_size
        assert sorted(cert.support.tolist()) == sorted(
            cert.k_set.tolist() + cert.shell.tolist())

    def test_sphere_mode_meets_own_closed_form(self, two_type_params, two_type_profile):
        for seed in (1, 2):
            sample = ds.sample_graph(two_type_params, seed)
            cert = ds.build_rogue_certificate(sample.graph, two_type_profile, 3, 3, seed=seed)
            assert cert.rayleigh >= 0.5 * cert.closed_form - 1e-9
            assert np.abs(cert.cosines).max() <= 0.2

    @pytest.mark.parametrize("wrong", ["vertices", "depth", "kind"])
    def test_rejects_a_dl_that_is_not_this_graphs_distance_matrix(self, wrong):
        g = ds.sample_graph(small_params(300), 1).graph
        prof = ds.derive_spectral_profile(small_params(300))
        dl = {"vertices": lambda: ds.distance_matrix(
                  ds.SparseGraph.from_edges(301, g.edge_array()), 3),
              "depth": lambda: ds.distance_matrix(g, 2),
              "kind": lambda: ds.path_expansion_matrix(g, 3, cap=10**6)}[wrong]()
        with pytest.raises(ValueError, match="not the distance matrix"):
            ds.build_rogue_certificate(g, prof, 3, 3, dl=dl)

    def test_sphere_mode_with_dl_expands_nothing(self, monkeypatch):
        g = ds.sample_graph(small_params(500), 1).graph
        prof = ds.derive_spectral_profile(small_params(500))
        dl = ds.distance_matrix(g, 4)
        want = {gamma: ds.build_rogue_certificate(g, prof, 4, gamma, seed=1, dl=dl)
                for gamma in (1, 3)}
        calls = []
        expand = graph.frontiers
        monkeypatch.setattr(graph, "frontiers",
                            lambda *args: calls.append(args) or expand(*args))
        for gamma in (1, 3):
            got = ds.build_rogue_certificate(g, prof, 4, gamma, seed=1, dl=dl)
            assert calls == []
            assert np.array_equal(got.support, want[gamma].support)
            assert got.rayleigh == want[gamma].rayleigh
            # The shell is every vertex at distance 4 from all of the set.
            assert np.array_equal(got.shell,
                                  np.nonzero(dl.to_dense()[got.k_set].min(axis=0))[0])

    def test_sphere_mode_without_common_shell_says_so(self):
        # Hubs of degree >= 8 exist here, but no 8 neighbours of one share a
        # distance-2 shell of two vertices, so no certificate is built.
        g = ds.sample_graph(small_params(500), 1).graph
        prof = ds.derive_spectral_profile(small_params(500))
        with pytest.raises(GreedyExhausted, match="^no 8 neighbours of a hub share a "
                                                  "distance-2 shell of 2 or more vertices$"):
            ds.build_rogue_certificate(g, prof, 2, 8, seed=1)

    def test_single_vertex_without_a_shell_says_so(self):
        # K_4 has diameter 1, so the top pool vertex has no distance-2 shell.
        g = ds.SparseGraph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        prof = ds.derive_spectral_profile(small_params(4))
        with pytest.raises(GreedyExhausted, match="^no vertex lies at distance 2 from vertex 0$"):
            ds.build_rogue_certificate(g, prof, 2, 1)


def _certificate_digest() -> str:
    """SHA-256 over every certificate field, or the ``GreedyExhausted``
    message, for ``dl`` given or not x gamma in {1, 3, 8, 20} on the sweep
    benchmark's graphs (n = 500, W = [[5, 1], [1, 5]], seeds 1 and 2) at
    its depth ell = 4 and at ell = 2.  Arrays enter as dtype plus raw bytes
    and floats as hex, so any change in the last bit shows."""
    params = small_params(500)
    profile = ds.derive_spectral_profile(params)
    h = hashlib.sha256()
    for seed in (1, 2):
        g = ds.sample_graph(params, seed).graph
        for ell in (4, 2):
            for given_dl in (None, ds.distance_matrix(g, ell)):
                for gamma in (1, 3, 8, 20):
                    h.update(f"|{seed} {ell} {given_dl is None} {gamma}:".encode())
                    try:
                        cert = ds.build_rogue_certificate(g, profile, ell, gamma,
                                                          seed=seed, dl=given_dl)
                    except GreedyExhausted as exc:
                        h.update(f"GreedyExhausted {exc}".encode())
                        continue
                    for name in ("k_set", "shell", "support", "values", "cosines"):
                        arr = getattr(cert, name)
                        h.update(f"{name} {arr.dtype.str} {arr.shape}".encode())
                        h.update(np.ascontiguousarray(arr).tobytes())
                    h.update(f"{cert.rayleigh.hex()} {cert.closed_form.hex()} {cert.gamma} "
                             f"{cert.shell_size}".encode())
    return h.hexdigest()


def test_certificate_outputs_are_pinned():
    assert _certificate_digest() == (
        "721b7a29c775094b08434cc177d081121161dca32aec4dae0c77c63ce6a714fb")


def _candidate_choice_digest() -> str:
    """SHA-256 over the chosen certificate's ``k_set``, ``shell``, ``rayleigh``
    and ``cosines``, or the ``GreedyExhausted`` message, for gamma 1..8 at
    ell in {2, 3} on three graphs at n = 300.  Between them these calls take
    the safe pick, the least-aligned fallback and the exhausted exit."""
    params = small_params(300)
    profile = ds.derive_spectral_profile(params)
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        g = ds.sample_graph(params, seed).graph
        for ell in (2, 3):
            dl = ds.distance_matrix(g, ell)
            for gamma in range(1, 9):
                h.update(f"|{seed} {ell} {gamma}:".encode())
                try:
                    cert = ds.build_rogue_certificate(g, profile, ell, gamma, seed=seed, dl=dl)
                except GreedyExhausted as exc:
                    h.update(f"GreedyExhausted {exc}".encode())
                    continue
                h.update(f"{cert.k_set.tolist()} {cert.shell.tolist()} {cert.rayleigh.hex()} "
                         f"{[c.hex() for c in cert.cosines.tolist()]}".encode())
    return h.hexdigest()


def test_candidate_choice_is_pinned():
    # Computed when each candidate was scored in its own loop, before the
    # candidates were scored in one product.
    assert _candidate_choice_digest() == (
        "73f9939bbcdc863dc88d111c4694e3c49c435a2f23a44eb19d5f22f76879387c")
