"""Initial camera and marker poses from pairwise optima via a spanning tree.

Each selected pairwise transform becomes a weighted graph edge; the weight is
the mean selection distance inflated for pairs with few samples. Chaining
transforms along the minimum spanning tree yields an initial absolute pose
for every camera (w.r.t. the reference camera) and every marker (w.r.t. the
reference marker).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import DisconnectedGraph
from .geometry import IndexedPoses, RigidTransform, compose, invert
from .pairwise import PairAccumulator, PairKey

DEFAULT_TAU_N = 10.0


@dataclass(frozen=True)
class GraphEdge:
    weight: float  # m^2, d_mean scaled by the sample-count factor
    d_mean: float  # m^2
    s: int  # sample count
    transform: RigidTransform  # maps b-frame coordinates to a-frame coordinates


@dataclass
class PoseGraph:
    """Undirected weighted graph over camera ids or marker ids."""

    kind: str
    vertices: set[int] = field(default_factory=set)
    edges: dict[PairKey, GraphEdge] = field(default_factory=dict)


@dataclass(frozen=True)
class StructureEstimate:
    """Absolute poses relative to a reference vertex.

    poses[v] maps v-frame coordinates into the reference frame;
    poses[reference] is exactly the identity.
    """

    reference: int
    poses: dict[int, RigidTransform]
    tree_edges: tuple[PairKey, ...]

    @cached_property
    def stacked(self) -> IndexedPoses:
        """The poses stacked once, in sorted id order."""
        return IndexedPoses.of(self.poses)


def edge_weight(d_mean: float, s: int, tau_n: float) -> float:
    """Mean distance inflated by max(1, tau_n / s) for poorly observed pairs."""
    return d_mean * max(1.0, tau_n / s)


def build_graph(
    accumulators: list[PairAccumulator],
    tau_n: float = DEFAULT_TAU_N,
    vertices: set[int] | None = None,
) -> PoseGraph:
    """Graph with one edge per selected pair.

    `vertices` may list every id that appears in the data so that ids with no
    co-observations at all still show up (and fail connectivity loudly);
    otherwise vertices are taken from the edges.
    """
    if tau_n < 1.0:
        raise ValueError(f"tau_n must be >= 1, got {tau_n}")
    kinds = {acc.key.kind for acc in accumulators}
    if len(kinds) > 1:
        raise ValueError(f"mixed pair kinds in one graph: {sorted(kinds)}")
    g = PoseGraph(kind=kinds.pop() if kinds else "camera")
    if vertices is not None:
        g.vertices |= set(vertices)
    for acc in accumulators:
        s = len(acc.samples)
        if s == 0:
            continue
        if acc.selected is None:
            raise ValueError(f"pair {acc.key} has no selected transform")
        g.vertices |= {acc.key.a, acc.key.b}
        g.edges[acc.key] = GraphEdge(
            weight=edge_weight(acc.selected.d_mean, s, tau_n),
            d_mean=acc.selected.d_mean,
            s=s,
            transform=acc.selected.best,
        )
    return g


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def _components(uf: _UnionFind, vertices) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for v in sorted(vertices):
        groups.setdefault(uf.find(v), []).append(v)
    return sorted(groups.values())


def minimum_spanning_tree(g: PoseGraph) -> list[PairKey]:
    """Kruskal's algorithm; equal weights break ties by lexicographic key.

    Raises DisconnectedGraph listing the connected components when the graph
    does not span all vertices.
    """
    uf = _UnionFind(g.vertices)
    tree: list[PairKey] = []
    for key in sorted(g.edges, key=lambda k: (g.edges[k].weight, k)):
        if uf.union(key.a, key.b):
            tree.append(key)
    if len(tree) != len(g.vertices) - 1:
        raise DisconnectedGraph(g.kind, _components(uf, g.vertices))
    return tree


def chain_poses(g: PoseGraph, tree: list[PairKey], reference: int) -> StructureEstimate:
    """Absolute pose of every vertex by walking the tree from the reference.

    An edge (a, b) stores the b-to-a transform X, so discovering b from a
    gives poses[b] = poses[a] * X and discovering a from b uses the inverse.
    """
    if reference not in g.vertices:
        raise ValueError(f"reference {reference} not among vertices {sorted(g.vertices)}")
    adjacency: dict[int, list[PairKey]] = {v: [] for v in g.vertices}
    for key in tree:
        adjacency[key.a].append(key)
        adjacency[key.b].append(key)
    poses = {reference: RigidTransform.identity()}
    stack = [reference]
    while stack:
        v = stack.pop()
        for key in sorted(adjacency[v]):
            other = key.b if v == key.a else key.a
            if other in poses:
                continue
            x = g.edges[key].transform
            if v == key.a:
                poses[other] = compose(poses[v], x)
            else:
                poses[other] = compose(poses[v], invert(x))
            stack.append(other)
    missing = g.vertices - set(poses)
    if missing:
        uf = _UnionFind(g.vertices)
        for key in tree:
            uf.union(key.a, key.b)
        raise DisconnectedGraph(g.kind, _components(uf, g.vertices))
    return StructureEstimate(reference, poses, tuple(tree))


def to_dot(g: PoseGraph, tree: list[PairKey] | None = None) -> str:
    """DOT-format text for graph diagnostics; tree edges drawn bold."""
    in_tree = set(tree or [])
    lines = [f'graph {g.kind}_pairs {{']
    for v in sorted(g.vertices):
        lines.append(f"  {v};")
    for key in sorted(g.edges):
        e = g.edges[key]
        style = ', style=bold' if key in in_tree else ""
        lines.append(
            f'  {key.a} -- {key.b} [label="w={e.weight:.3g} s={e.s}"{style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
