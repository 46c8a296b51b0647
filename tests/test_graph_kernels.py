"""CSR graph kernels: structure, caching, and parity with the reference.

The contract under test: on graphs with distinct path costs, the
array-backed kernels (:mod:`repro.graph.kernels`) return *exactly* the
same paths and (to float tolerance) the same float costs as the
pure-Python reference implementations.  The property suites below use
continuous random weights so cost ties are measure-zero and exact
path-sequence comparison is meaningful.

Under ties the kernels follow their own tie contract instead, which makes
the A* potentials invisible in the output: the tie suite holds A* Yen to
the same kernel run at zero potentials on tie-heavy graphs.
"""

import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graph import (
    DiGraph,
    NoPathError,
    k_shortest_paths,
    shortest_path,
)
from repro.graph.dijkstra import shortest_path as ref_shortest_path
from repro.graph.dijkstra import shortest_path_tree
from repro.graph.kernels import (
    POTENTIAL_SHAVE,
    CSRGraph,
    _run_dijkstra,
    csr_k_shortest_paths,
    csr_of,
    csr_shortest_path,
)
from repro.graph.yen import k_shortest_paths as ref_k_shortest_paths

TOOL = Path(__file__).parent.parent / "tools" / "check_pool_differential.py"
spec = importlib.util.spec_from_file_location("check_pool_differential", TOOL)
check_pool_differential = importlib.util.module_from_spec(spec)
sys.modules["check_pool_differential"] = check_pool_differential
spec.loader.exec_module(check_pool_differential)


def diamond():
    """s -> {a, b} -> t with a cheap top route."""
    g = DiGraph()
    g.add_edge("s", "a", 1.0)
    g.add_edge("a", "t", 1.0)
    g.add_edge("s", "b", 2.0)
    g.add_edge("b", "t", 2.0)
    return g


def random_graph(seed: int, n_lo: int = 4, n_hi: int = 16) -> tuple[DiGraph, int]:
    """A random digraph with continuous weights (ties measure-zero)."""
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    g = DiGraph()
    for i in range(n):
        g.add_node(i)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.35:
                g.add_edge(u, v, rng.random() * 10.0)
    return g, n


class TestCSRStructure:
    def test_interning_follows_insertion_order(self):
        g = diamond()
        csr = CSRGraph.from_digraph(g)
        assert csr.nodes == ["s", "a", "t", "b"]
        assert csr.index == {"s": 0, "a": 1, "t": 2, "b": 3}
        assert csr.node_count == 4
        assert csr.edge_count == 4

    def test_rows_partition_edges(self):
        g = diamond()
        csr = CSRGraph.from_digraph(g)
        edges = set()
        for u in range(csr.node_count):
            for slot in range(csr.indptr[u], csr.indptr[u + 1]):
                v = int(csr.indices[slot])
                edges.add((csr.nodes[u], csr.nodes[v], float(csr.weights[slot])))
                assert csr.edge_slot[(u, v)] == slot
        assert edges == set(g.edges())

    def test_masked_edges_are_compiled_with_true_weights(self):
        g = diamond()
        g.mask_edge("s", "a")
        csr = CSRGraph.from_digraph(g)
        slot = csr.edge_slot[(csr.index["s"], csr.index["a"])]
        assert csr.weights[slot] == 1.0

    def test_node_mask_ignores_absent_nodes(self):
        csr = CSRGraph.from_digraph(diamond())
        assert csr.node_mask([]) is None
        assert csr.node_mask(["nope"]) is None
        mask = csr.node_mask(["a", "nope"])
        assert mask is not None and mask[csr.index["a"]]
        assert mask.sum() == 1

    def test_edge_mask_ignores_absent_edges(self):
        csr = CSRGraph.from_digraph(diamond())
        assert csr.edge_mask(None, frozenset()) is None
        assert csr.edge_mask({("t", "s")}) is None  # not an edge
        mask = csr.edge_mask({("s", "a"), ("t", "s")})
        assert mask is not None and mask.sum() == 1


class TestCSRCache:
    def test_repeated_compilation_is_cached(self):
        g = diamond()
        assert csr_of(g) is csr_of(g)

    def test_masking_does_not_invalidate(self):
        g = diamond()
        before = csr_of(g)
        g.mask_edge("s", "a")
        assert csr_of(g) is before
        g.clear_masks()
        assert csr_of(g) is before

    def test_structural_mutation_invalidates(self):
        g = diamond()
        before = csr_of(g)
        g.add_edge("a", "b", 9.0)
        assert csr_of(g) is not before

    def test_weight_change_invalidates(self):
        g = diamond()
        before = csr_of(g)
        g.set_weight("s", "a", 5.0)
        after = csr_of(g)
        assert after is not before
        slot = after.edge_slot[(after.index["s"], after.index["a"])]
        assert after.weights[slot] == 5.0

    def test_copy_shares_the_compiled_view(self):
        g = diamond()
        view = csr_of(g)
        assert csr_of(g.copy()) is view

    def test_copy_diverges_after_mutation(self):
        g = diamond()
        view = csr_of(g)
        h = g.copy()
        h.add_edge("a", "b", 1.0)
        assert csr_of(h) is not view
        assert csr_of(g) is view  # the original is untouched


class TestCSRDijkstraBehaviour:
    """The behaviour pins of tests/test_graph_dijkstra.py, on the kernel."""

    def test_min_path_on_diamond(self):
        assert csr_shortest_path(diamond(), "s", "t") == (["s", "a", "t"], 2.0)

    def test_source_equals_target(self):
        assert csr_shortest_path(diamond(), "s", "s") == (["s"], 0.0)

    def test_missing_endpoints_raise_keyerror(self):
        with pytest.raises(KeyError):
            csr_shortest_path(diamond(), "nope", "t")
        with pytest.raises(KeyError):
            csr_shortest_path(diamond(), "s", "nope")

    def test_banned_endpoint_raises(self):
        with pytest.raises(NoPathError):
            csr_shortest_path(diamond(), "s", "t", banned_nodes={"t"})

    def test_banned_node_reroutes(self):
        path, cost = csr_shortest_path(diamond(), "s", "t", banned_nodes={"a"})
        assert path == ["s", "b", "t"] and cost == 4.0

    def test_banned_edge_reroutes(self):
        path, _ = csr_shortest_path(
            diamond(), "s", "t", banned_edges={("s", "a")}
        )
        assert path == ["s", "b", "t"]

    def test_masked_edges_ignored(self):
        g = diamond()
        g.mask_edge("a", "t")
        path, _ = csr_shortest_path(g, "s", "t")
        assert path == ["s", "b", "t"]

    def test_unreachable_raises(self):
        g = diamond()
        g.add_node("island")
        with pytest.raises(NoPathError):
            csr_shortest_path(g, "s", "island")

    def test_zero_weight_edges(self):
        g = DiGraph()
        g.add_edge("s", "a", 0.0)
        g.add_edge("a", "t", 0.0)
        assert csr_shortest_path(g, "s", "t") == (["s", "a", "t"], 0.0)


class TestCSRYenBehaviour:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            csr_k_shortest_paths(diamond(), "s", "t", 0)

    def test_unreachable_returns_empty(self):
        g = diamond()
        g.add_node("island")
        assert csr_k_shortest_paths(g, "s", "island", 3) == []

    def test_source_equals_target(self):
        assert csr_k_shortest_paths(diamond(), "s", "s", 3) == [(["s"], 0.0)]

    def test_costs_nondecreasing_and_paths_simple(self):
        g, n = random_graph(99, 8, 12)
        paths = csr_k_shortest_paths(g, 0, n - 1, 12)
        costs = [c for _, c in paths]
        assert costs == sorted(costs)
        keys = {tuple(p) for p, _ in paths}
        assert len(keys) == len(paths)
        for p, _ in paths:
            assert len(set(p)) == len(p)

    def test_masked_edges_respected(self):
        g = diamond()
        g.mask_edge("s", "a")
        paths = csr_k_shortest_paths(g, "s", "t", 4)
        assert [p for p, _ in paths] == [["s", "b", "t"]]


class TestBackendDispatch:
    """``repro.graph``'s query functions are the CSR kernels."""

    def test_csr_backend_is_the_kernel(self):
        assert shortest_path is csr_shortest_path
        assert k_shortest_paths is csr_k_shortest_paths


class TestDijkstraParity:
    """CSR vs reference on random graphs: identical outcomes."""

    @pytest.mark.parametrize("seed", range(40))
    def test_plain_queries_agree(self, seed):
        g, n = random_graph(seed)
        for target in (n - 1, n // 2):
            try:
                ref = ref_shortest_path(g, 0, target)
            except NoPathError:
                with pytest.raises(NoPathError):
                    csr_shortest_path(g, 0, target)
                continue
            got = csr_shortest_path(g, 0, target)
            assert got[0] == ref[0]
            assert got[1] == pytest.approx(ref[1], abs=1e-9)
            assert type(got[1]) is float

    @pytest.mark.parametrize("seed", range(40))
    def test_banned_and_masked_queries_agree(self, seed):
        g, n = random_graph(seed, 6, 14)
        rng = random.Random(seed + 1000)
        edges = [(u, v) for u, v, _ in g.edges()]
        for u, v in rng.sample(edges, len(edges) // 5):
            g.mask_edge(u, v)
        banned_nodes = set(rng.sample(range(1, n - 1), min(2, n - 2)))
        banned_edges = set(rng.sample(edges, min(3, len(edges))))
        try:
            ref = ref_shortest_path(
                g, 0, n - 1, banned_nodes=banned_nodes, banned_edges=banned_edges
            )
        except NoPathError:
            with pytest.raises(NoPathError):
                csr_shortest_path(
                    g, 0, n - 1,
                    banned_nodes=banned_nodes, banned_edges=banned_edges,
                )
            return
        got = csr_shortest_path(
            g, 0, n - 1, banned_nodes=banned_nodes, banned_edges=banned_edges
        )
        assert got[0] == ref[0]
        assert got[1] == pytest.approx(ref[1], abs=1e-9)
        assert type(got[1]) is float


class TestYenParity:
    """CSR Lawler-Yen vs reference Yen: identical path sets and order."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_path_sequences_agree(self, seed, k):
        g, n = random_graph(seed)
        ref = ref_k_shortest_paths(g, 0, n - 1, k)
        got = csr_k_shortest_paths(g, 0, n - 1, k)
        assert [p for p, _ in got] == [p for p, _ in ref]
        assert [c for _, c in got] == pytest.approx(
            [c for _, c in ref], abs=1e-9
        )
        assert all(type(c) is float for _, c in got)

    @pytest.mark.parametrize("seed", range(15))
    def test_masked_graphs_agree(self, seed):
        g, n = random_graph(seed, 6, 14)
        rng = random.Random(seed + 2000)
        edges = [(u, v) for u, v, _ in g.edges()]
        for u, v in rng.sample(edges, len(edges) // 4):
            g.mask_edge(u, v)
        ref = ref_k_shortest_paths(g, 0, n - 1, 6)
        got = csr_k_shortest_paths(g, 0, n - 1, 6)
        assert [p for p, _ in got] == [p for p, _ in ref]
        assert all(type(c) is float for _, c in got)

    def test_exhausts_like_the_reference(self):
        g = DiGraph()
        g.add_edge("s", "a", 1.0)
        g.add_edge("a", "t", 1.5)
        g.add_edge("s", "t", 3.1)
        ref = ref_k_shortest_paths(g, "s", "t", 50)
        got = csr_k_shortest_paths(g, "s", "t", 50)
        assert [p for p, _ in got] == [p for p, _ in ref]
        assert [c for _, c in got] == pytest.approx([c for _, c in ref])
        assert all(type(c) is float for _, c in got)
        assert len(got) == 2


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    @st.composite
    def weighted_digraphs(draw):
        n = draw(st.integers(min_value=3, max_value=10))
        seed = draw(st.integers(min_value=0, max_value=2**31))
        rng = random.Random(seed)
        g = DiGraph()
        for i in range(n):
            g.add_node(i)
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.4:
                    g.add_edge(u, v, rng.random() * 5.0)
        return g, n

    class TestHypothesisParity:
        @given(weighted_digraphs())
        @settings(max_examples=60, deadline=None)
        def test_dijkstra_matches_reference(self, graph_n):
            g, n = graph_n
            try:
                ref = ref_shortest_path(g, 0, n - 1)
            except NoPathError:
                with pytest.raises(NoPathError):
                    csr_shortest_path(g, 0, n - 1)
                return
            got = csr_shortest_path(g, 0, n - 1)
            assert got[0] == ref[0]
            assert got[1] == pytest.approx(ref[1], abs=1e-9)
            assert type(got[1]) is float

        @given(weighted_digraphs(), st.integers(min_value=1, max_value=8))
        @settings(max_examples=40, deadline=None)
        def test_yen_matches_reference(self, graph_n, k):
            g, n = graph_n
            ref = ref_k_shortest_paths(g, 0, n - 1, k)
            got = csr_k_shortest_paths(g, 0, n - 1, k)
            assert [p for p, _ in got] == [p for p, _ in ref]
            assert [c for _, c in got] == pytest.approx(
                [c for _, c in ref], abs=1e-9
            )
            assert all(type(c) is float for _, c in got)


class TestKernelScratchState:
    """The reused scratch masks must not leak between queries."""

    def test_repeated_yen_queries_are_stable(self):
        g, n = random_graph(5)
        first = csr_k_shortest_paths(g, 0, n - 1, 5)
        second = csr_k_shortest_paths(g, 0, n - 1, 5)
        assert first == second

    def test_yen_then_dijkstra_unaffected(self):
        g, n = random_graph(6)
        try:
            before = csr_shortest_path(g, 0, n - 1)
        except NoPathError:
            before = None
        csr_k_shortest_paths(g, 0, n - 1, 6)
        if before is None:
            with pytest.raises(NoPathError):
                csr_shortest_path(g, 0, n - 1)
        else:
            assert csr_shortest_path(g, 0, n - 1) == before


def reversed_graph(g: DiGraph) -> DiGraph:
    """``g`` with every edge turned around (masks ignored)."""
    r = DiGraph()
    for node in g.nodes():
        r.add_node(node)
    for u, v, w in g.edges():
        r.add_edge(v, u, w)
    return r


def grid_graph(rows: int, cols: int, weight=lambda rng: 1.0, seed: int = 0):
    """A bidirectional grid; unit weights unless ``weight`` draws others."""
    rng = random.Random(seed)
    g = DiGraph()
    for r in range(rows):
        for c in range(cols):
            g.add_node((r, c))
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < rows and c + dc < cols:
                    g.add_edge((r, c), (r + dr, c + dc), weight(rng))
                    g.add_edge((r + dr, c + dc), (r, c), weight(rng))
    return g


def integer_graph(seed: int, choices: tuple[float, ...]) -> tuple[DiGraph, int]:
    """A random digraph whose weights come from a small set (tie-heavy)."""
    rng = random.Random(seed)
    n = rng.randint(5, 14)
    g = DiGraph()
    for i in range(n):
        g.add_node(i)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.4:
                g.add_edge(u, v, rng.choice(choices))
    return g, n


def mask_some(g: DiGraph, seed: int, share: float = 0.2) -> None:
    rng = random.Random(seed)
    edges = [(u, v) for u, v, _ in g.edges()]
    for u, v in rng.sample(edges, int(len(edges) * share)):
        g.mask_edge(u, v)


def yen_with_and_without_potentials(monkeypatch, g, source, target, k):
    """Kernel Yen as shipped, then with every potential zero (Dijkstra)."""
    astar = csr_k_shortest_paths(g, source, target, k)
    with monkeypatch.context() as patch:
        patch.setattr(
            CSRGraph, "potentials", check_pool_differential.zero_potentials
        )
        plain = csr_k_shortest_paths(g, source, target, k)
    return astar, plain


class TestDistances:
    @pytest.mark.parametrize("seed", range(10))
    def test_equal_the_reference_bit_for_bit(self, seed):
        g, _ = random_graph(seed, 8, 24)
        csr = csr_of(g)
        for reverse, graph in ((False, g), (True, reversed_graph(g))):
            for node, i in csr.index.items():
                exact = shortest_path_tree(graph, node)
                assert csr.distances(i, reverse=reverse).tolist() == [
                    exact.get(v, np.inf) for v in csr.nodes
                ]


class TestPotentials:
    @pytest.mark.parametrize("seed", range(10))
    def test_shaved_reverse_distances(self, seed):
        g, n = random_graph(seed)
        csr = csr_of(g)
        h = csr.potentials(csr.index[n - 1])
        to_target = shortest_path_tree(reversed_graph(g), n - 1)
        for node, i in csr.index.items():
            if node not in to_target:
                assert h[i] == np.inf
                continue
            exact = to_target[node]
            assert h[i] <= exact
            assert h[i] == pytest.approx(exact * (1 - POTENTIAL_SHAVE), rel=1e-14)

    def test_masked_edges_count_toward_the_bound(self):
        g = diamond()
        g.mask_edge("a", "t")
        csr = csr_of(g)
        h = csr.potentials(csr.index["t"])
        assert h[csr.index["a"]] == pytest.approx(1.0)

    def test_zero_weight_chain_keeps_finite_potentials(self):
        g = DiGraph()
        for u, v in (("s", "a"), ("a", "b"), ("b", "t")):
            g.add_edge(u, v, 0.0)
        csr = csr_of(g)
        h = csr.potentials(csr.index["t"])
        assert np.isfinite(h).all() and not h.any()
        assert csr_k_shortest_paths(g, "s", "t", 3) == [(["s", "a", "b", "t"], 0.0)]

    def test_nodes_that_cannot_reach_the_target_are_pruned(self):
        g = diamond()
        g.add_edge("t", "sink-only", 1.0)
        csr = csr_of(g)
        assert csr.potentials(csr.index["t"])[csr.index["sink-only"]] == np.inf
        assert csr_k_shortest_paths(g, "sink-only", "t", 2) == []


class TestPotentialsCache:
    def test_one_array_per_target(self):
        g = diamond()
        csr = csr_of(g)
        t, b = csr.index["t"], csr.index["b"]
        assert csr.potentials(t) is csr.potentials(t)
        assert csr.potentials(b) is not csr.potentials(t)

    def test_reused_across_masks_and_queries(self):
        g = diamond()
        csr = csr_of(g)
        before = csr.potentials(csr.index["t"])
        g.mask_edge("s", "a")
        csr_k_shortest_paths(g, "s", "t", 2)
        g.clear_masks()
        csr_k_shortest_paths(g, "s", "t", 2)
        assert csr_of(g).potentials(csr.index["t"]) is before

    def test_copies_share_them(self):
        g = diamond()
        csr = csr_of(g)
        before = csr.potentials(csr.index["t"])
        h = g.copy()
        h.mask_edge("a", "t")
        assert csr_of(h).potentials(csr.index["t"]) is before

    def test_add_edge_recomputes(self):
        g = diamond()
        csr = csr_of(g)
        before = csr.potentials(csr.index["t"])
        g.add_edge("s", "t", 0.5)
        after = csr_of(g).potentials(csr.index["t"])
        assert after is not before
        assert after[csr.index["s"]] == pytest.approx(0.5)
        assert csr_k_shortest_paths(g, "s", "t", 1) == [(["s", "t"], 0.5)]

    def test_set_weight_recomputes(self):
        g = diamond()
        csr = csr_of(g)
        before = csr.potentials(csr.index["t"])
        g.set_weight("a", "t", 9.0)
        after = csr_of(g).potentials(csr.index["t"])
        assert after is not before
        assert after[csr.index["a"]] == pytest.approx(9.0)
        assert csr_k_shortest_paths(g, "s", "t", 1) == [(["s", "b", "t"], 4.0)]


class TestZeroWeightTies:
    """The tie rule skips zero-weight edges, so ``prev`` stays acyclic."""

    @staticmethod
    def zero_weight_cycle() -> DiGraph:
        # "a" and "b" tie at cost 1 through the zero-weight pair a <-> b;
        # "x" is interned last, so a (dist, index) rule applied across the
        # zero-weight edges would set prev[a] = b after prev[b] = a.
        g = DiGraph()
        for node in ("s", "a", "b", "t", "x"):
            g.add_node(node)
        g.add_edge("s", "x", 1.0)
        g.add_edge("x", "a", 0.0)
        g.add_edge("a", "b", 0.0)
        g.add_edge("b", "a", 0.0)
        g.add_edge("a", "t", 1.0)
        g.add_edge("b", "t", 1.0)
        return g

    def test_prev_stays_acyclic(self):
        g = self.zero_weight_cycle()
        csr = csr_of(g)
        s, t = csr.index["s"], csr.index["t"]
        for potentials in (csr.potentials(t), np.zeros(csr.node_count)):
            _, prev = _run_dijkstra(csr, s, -1, None, None, potentials)
            for start in range(csr.node_count):
                hop = start
                for _ in range(csr.node_count):
                    if hop == -1:
                        break
                    hop = int(prev[hop])
                assert hop == -1, f"prev cycle through node {start}"

    def test_both_kernels_return(self, monkeypatch):
        g = self.zero_weight_cycle()
        astar, plain = yen_with_and_without_potentials(monkeypatch, g, "s", "t", 4)
        assert astar == plain
        assert astar == [
            (["s", "x", "a", "t"], 2.0), (["s", "x", "a", "b", "t"], 2.0),
        ]
        assert csr_shortest_path(g, "s", "t") == (["s", "x", "a", "t"], 2.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_zero_one_grids(self, monkeypatch, seed):
        g = grid_graph(4, 4, lambda rng: float(rng.random() < 0.5), seed)
        astar, plain = yen_with_and_without_potentials(
            monkeypatch, g, (0, 0), (3, 3), 10
        )
        assert astar == plain
        for path, cost in astar:
            assert len(set(path)) == len(path)
            assert cost == g.subgraph_weight(path)


class TestTieRule:
    """A* Yen returns what the same kernel returns at zero potentials."""

    @pytest.mark.parametrize("size", [(3, 3), (4, 5), (6, 6)])
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_unit_weight_grids(self, monkeypatch, size, k):
        rows, cols = size
        g = grid_graph(rows, cols)
        for target in ((rows - 1, cols - 1), (0, cols - 1), (rows // 2, 0)):
            astar, plain = yen_with_and_without_potentials(
                monkeypatch, g, (0, 0), target, k
            )
            assert astar == plain

    @pytest.mark.parametrize("seed", range(6))
    def test_small_integer_grids_with_masks(self, monkeypatch, seed):
        g = grid_graph(5, 5, lambda rng: float(rng.randint(1, 3)), seed)
        mask_some(g, seed)
        astar, plain = yen_with_and_without_potentials(
            monkeypatch, g, (0, 0), (4, 4), 10
        )
        assert astar == plain

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("weights", [(1.0, 2.0, 3.0), (0.0, 1.0)])
    def test_random_tie_heavy_graphs(self, monkeypatch, seed, weights):
        g, n = integer_graph(seed, weights)
        if seed % 2:
            mask_some(g, seed + 500)
        astar, plain = yen_with_and_without_potentials(
            monkeypatch, g, 0, n - 1, 8
        )
        assert astar == plain

    def test_lowest_predecessor_wins(self, monkeypatch):
        # Node "b" (index 2) is reached at cost 2 through "a" (index 1)
        # and "c" (index 3); plain Dijkstra relaxes through "a" first.
        g = DiGraph()
        g.add_edge("s", "a", 1.0)
        g.add_edge("a", "b", 1.0)
        g.add_edge("s", "c", 1.0)
        g.add_edge("c", "b", 1.0)
        g.add_edge("b", "t", 1.0)
        astar, plain = yen_with_and_without_potentials(monkeypatch, g, "s", "t", 2)
        assert astar == plain == [
            (["s", "a", "b", "t"], 3.0), (["s", "c", "b", "t"], 3.0),
        ]

    def test_loose_potentials_keep_the_choice(self, monkeypatch):
        # The masked shortcut d -> t still counts toward the potentials,
        # so A* settles "d" before "a".  Both reach "b" at cost 2, and
        # "a" keeps prev["b"]: it has the smaller (dist, index).
        g = DiGraph()
        for node in ("s", "a", "b", "t", "d"):
            g.add_node(node)
        g.add_edge("s", "a", 1.0)
        g.add_edge("s", "d", 1.0)
        g.add_edge("a", "b", 1.0)
        g.add_edge("d", "b", 1.0)
        g.add_edge("b", "t", 1.0)
        g.add_edge("d", "t", 0.5)
        g.mask_edge("d", "t")
        astar, plain = yen_with_and_without_potentials(monkeypatch, g, "s", "t", 2)
        assert astar == plain
        assert astar == [(["s", "a", "b", "t"], 3.0), (["s", "d", "b", "t"], 3.0)]
        assert astar == ref_k_shortest_paths(g, "s", "t", 2)


class TestRegistryPoolDifferential:
    """Algorithm 1's pools on real problems: A* equals zero potentials."""

    def test_every_fifth_registry_problem(self):
        scenarios = check_pool_differential.registry_scenarios([0], stride=5)
        mismatched, problems, queries = check_pool_differential.differential(
            scenarios
        )
        assert mismatched == []
        assert problems >= 15 and queries >= 150
