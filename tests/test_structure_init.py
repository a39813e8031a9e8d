"""Tests for graph building, spanning-tree selection and pose chaining."""

from __future__ import annotations

import math

import numpy as np
import pytest

from markercal.errors import DisconnectedGraph
from markercal.geometry import PoseStack, RigidTransform, compose, invert, rotation_from_rvec
from markercal.pairwise import (
    CAMERA_PAIR,
    MARKER_PAIR,
    PairAccumulator,
    PairKey,
    SelectedTransform,
)
from markercal.structure_init import (
    PoseGraph,
    build_graph,
    chain_poses,
    edge_weight,
    minimum_spanning_tree,
    to_dot,
)


def _acc(a, b, d_mean, s, transform=None) -> PairAccumulator:
    t = transform if transform is not None else RigidTransform.identity()
    samples = PoseStack.of([t] * s)
    selected = SelectedTransform(t, d_mean * s, d_mean, 0)
    return PairAccumulator(PairKey(a, b), samples, selected)


def _random_transform(rng) -> RigidTransform:
    rvec = rng.normal(size=3)
    rvec *= rng.uniform(0, math.pi - 0.1) / np.linalg.norm(rvec)
    return RigidTransform(rotation_from_rvec(rvec), rng.uniform(-1, 1, 3))


def _prim_total_weight(vertices, weights):
    """Independent MST oracle (Prim); returns None when disconnected."""
    verts = sorted(vertices)
    visited = {verts[0]}
    total = 0.0
    while len(visited) < len(verts):
        best = None
        for key, w in weights.items():
            if (key.a in visited) != (key.b in visited):
                if best is None or w < best[0]:
                    best = (w, key)
        if best is None:
            return None
        total += best[0]
        visited |= {best[1].a, best[1].b}
    return total


class TestBuildGraph:
    def test_weight_formula_well_sampled(self):
        # s >= tau_n so the inflation factor is 1
        g = build_graph([_acc(0, 1, d_mean=0.02, s=20)], CAMERA_PAIR, tau_n=10.0)
        assert g.edges[PairKey(0, 1)].weight == pytest.approx(0.02, abs=1e-15)

    def test_weight_formula_undersampled(self):
        g = build_graph([_acc(0, 1, d_mean=0.02, s=5)], CAMERA_PAIR, tau_n=10.0)
        e = g.edges[PairKey(0, 1)]
        assert e.weight == pytest.approx(0.04, abs=1e-15)
        assert e.weight == pytest.approx(e.d_mean * max(1.0, 10.0 / e.s), abs=1e-12)

    def test_inflation_factor_spot_check(self):
        assert edge_weight(1.0, 5, 10.0) == 2.0
        assert edge_weight(1.0, 20, 10.0) == 1.0

    def test_empty_pair_gives_no_edge(self):
        empty = PairAccumulator(PairKey(2, 3))
        g = build_graph([_acc(0, 1, 0.02, 20), empty], CAMERA_PAIR, tau_n=10.0)
        assert set(g.edges) == {PairKey(0, 1)}

    def test_explicit_vertices_are_kept(self):
        g = build_graph([_acc(0, 1, 0.02, 20)], CAMERA_PAIR, tau_n=10.0, vertices={0, 1, 2})
        assert g.vertices == {0, 1, 2}

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_graph([], CAMERA_PAIR, tau_n=0.5)
        # NaN compares false both ways: it must fail too, not give NaN weights
        with pytest.raises(ValueError):
            build_graph([_acc(0, 1, 0.02, 20)], CAMERA_PAIR, tau_n=float("nan"))
        unselected = PairAccumulator(PairKey(0, 1), PoseStack.of([RigidTransform.identity()]))
        with pytest.raises(ValueError):
            build_graph([unselected], CAMERA_PAIR)


class TestMinimumSpanningTree:
    def test_triangle_takes_two_smallest(self):
        g = build_graph(
            [_acc(0, 1, 1.0, 10), _acc(1, 2, 2.0, 10), _acc(0, 2, 3.0, 10)], CAMERA_PAIR
        )
        assert minimum_spanning_tree(g) == [PairKey(0, 1), PairKey(1, 2)]

    def test_tree_input_returns_all_edges(self):
        g = build_graph(
            [_acc(0, 1, 1.0, 10), _acc(1, 2, 5.0, 10), _acc(2, 3, 3.0, 10)], CAMERA_PAIR
        )
        assert set(minimum_spanning_tree(g)) == set(g.edges)

    def test_equal_weights_break_ties_lexicographically(self):
        g = build_graph(
            [_acc(0, 1, 1.0, 10), _acc(0, 2, 1.0, 10), _acc(1, 2, 1.0, 10)], CAMERA_PAIR
        )
        assert minimum_spanning_tree(g) == [PairKey(0, 1), PairKey(0, 2)]

    def test_matches_independent_prim_oracle(self):
        rng = np.random.default_rng(139)
        done = 0
        while done < 20:
            n = 8
            accs = []
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < 0.45:
                        accs.append(_acc(a, b, float(rng.uniform(0.01, 5.0)), 10))
            g = build_graph(accs, CAMERA_PAIR, vertices=set(range(n)))
            oracle = _prim_total_weight(g.vertices, {k: e.weight for k, e in g.edges.items()})
            if oracle is None:
                with pytest.raises(DisconnectedGraph):
                    minimum_spanning_tree(g)
                continue
            tree = minimum_spanning_tree(g)
            total = sum(g.edges[k].weight for k in tree)
            assert total == pytest.approx(oracle, rel=1e-12)
            assert len(tree) == n - 1
            done += 1

    def test_disconnected_reports_components(self):
        g = build_graph(
            [_acc(0, 1, 1.0, 10), _acc(3, 4, 1.0, 10)], CAMERA_PAIR, vertices={0, 1, 2, 3, 4}
        )
        with pytest.raises(DisconnectedGraph) as exc:
            minimum_spanning_tree(g)
        assert exc.value.components == [[0, 1], [2], [3, 4]]
        assert exc.value.kind == "camera"

    def test_zero_weight_edges_allowed(self):
        g = build_graph([_acc(0, 1, 0.0, 10), _acc(1, 2, 0.0, 10)], CAMERA_PAIR)
        assert len(minimum_spanning_tree(g)) == 2


class TestChainPoses:
    def test_reference_is_identity(self):
        g = build_graph([_acc(0, 1, 1.0, 10)], CAMERA_PAIR)
        est = chain_poses(g, minimum_spanning_tree(g), reference=0)
        np.testing.assert_array_equal(est.poses[0].as_matrix(), np.eye(4))

    def test_two_vertex_edge_direction(self):
        rng = np.random.default_rng(149)
        x = _random_transform(rng)  # stored as the 1 -> 0 transform
        g = build_graph([_acc(0, 1, 1.0, 10, transform=x)], CAMERA_PAIR)
        tree = minimum_spanning_tree(g)
        est = chain_poses(g, tree, reference=0)
        np.testing.assert_allclose(est.poses[1].as_matrix(), x.as_matrix(), atol=1e-15)
        est_rev = chain_poses(g, tree, reference=1)
        np.testing.assert_allclose(
            est_rev.poses[0].as_matrix(), invert(x).as_matrix(), atol=1e-15
        )

    def test_chain_composes_along_path(self):
        rng = np.random.default_rng(151)
        x01 = _random_transform(rng)  # 1 -> 0
        x12 = _random_transform(rng)  # 2 -> 1
        g = build_graph(
            [_acc(0, 1, 1.0, 10, transform=x01), _acc(1, 2, 1.0, 10, transform=x12)], CAMERA_PAIR
        )
        est = chain_poses(g, minimum_spanning_tree(g), reference=0)
        np.testing.assert_allclose(
            est.poses[2].as_matrix(), compose(x01, x12).as_matrix(), atol=1e-12
        )

    def test_rerooting_consistency(self):
        rng = np.random.default_rng(157)
        accs = [
            _acc(0, 1, 1.0, 10, transform=_random_transform(rng)),
            _acc(1, 2, 1.5, 10, transform=_random_transform(rng)),
            _acc(1, 3, 2.0, 10, transform=_random_transform(rng)),
            _acc(3, 4, 0.5, 10, transform=_random_transform(rng)),
        ]
        g = build_graph(accs, CAMERA_PAIR)
        tree = minimum_spanning_tree(g)
        est0 = chain_poses(g, tree, reference=0)
        est3 = chain_poses(g, tree, reference=3)
        for v in g.vertices:
            expected = compose(invert(est0.poses[3]), est0.poses[v])
            np.testing.assert_allclose(
                est3.poses[v].as_matrix(), expected.as_matrix(), atol=1e-9
            )

    def test_bad_reference_rejected(self):
        g = build_graph([_acc(0, 1, 1.0, 10)], CAMERA_PAIR)
        with pytest.raises(ValueError):
            chain_poses(g, minimum_spanning_tree(g), reference=9)


class TestDot:
    def test_contains_vertices_edges_and_tree_style(self):
        for side in (CAMERA_PAIR, MARKER_PAIR):
            g = build_graph(
                [_acc(0, 1, 1.0, 10), _acc(1, 2, 2.0, 10), _acc(0, 2, 9.0, 10)], side
            )
            text = to_dot(g, minimum_spanning_tree(g))
            assert text.startswith(f"graph {side}_pairs {{\n")
            assert "0 -- 1" in text and "1 -- 2" in text and "0 -- 2" in text
            assert text.count("style=bold") == 2
