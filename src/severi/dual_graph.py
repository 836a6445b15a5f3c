"""Central-fiber combinatorics: the collapsed dual graph and the genus bound.

The central fiber of a one-parameter degeneration splits into the residual
part X (collapsed to one vertex carrying its arithmetic genus), the curve
dominating the distinguished fiber (one vertex per component, each of some
genus and degree over the fiber), and contracted components Z_i.  Edges are
the external nodes; nodes internal to X or to the dominating curve are
pre-collapsed and never appear.

T counts the connections between X and the dominating curve: connected
components of Z meeting both, plus direct nodes.  The genus bound is
p_a(X) + T <= g, with equality forcing the dominating curve to be a
disjoint union of genus-one components and Z a union of rational chains
joining X to it once each.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import InvalidState, expect, field_of, root

X = "X"


@dataclass(frozen=True)
class CentralFiber:
    x_genus: int
    e_parts: tuple[tuple[int, int], ...] = ()  # (genus, degree over the fiber)
    z_parts: tuple[int, ...] = ()              # genus per contracted component
    edges: tuple[tuple[str, str], ...] = ()

    def node_ids(self) -> tuple[str, ...]:
        return (
            (X,)
            + tuple(f"E{i}" for i in range(len(self.e_parts)))
            + tuple(f"Z{i}" for i in range(len(self.z_parts)))
        )

    def degree(self, node: str) -> int:
        return sum((a == node) + (b == node) for a, b in self.edges)

    def to_json(self) -> dict:
        return {
            "x_genus": self.x_genus,
            "e_components": [
                {"genus": g, "degree": d} for g, d in self.e_parts
            ],
            "z_components": [{"genus": g} for g in self.z_parts],
            "edges": [list(e) for e in self.edges],
        }

    @staticmethod
    def from_json(data) -> "CentralFiber":
        """Parse a graph in the shape of ``docs/central_fiber.schema.json``.

        A document of the wrong shape raises :class:`~.base.InvalidState`
        naming the field; omitted component or edge lists mean none."""
        expect(data, "object", "graph")
        e_parts, z_parts = [], []
        for i, c in enumerate(field_of(data, "e_components", "array", "graph", default=[])):
            at = f"graph.e_components[{i}]"
            expect(c, "object", at)
            e_parts.append((field_of(c, "genus", "integer", at), field_of(c, "degree", "integer", at)))
        for i, c in enumerate(field_of(data, "z_components", "array", "graph", default=[])):
            at = f"graph.z_components[{i}]"
            expect(c, "object", at)
            z_parts.append(field_of(c, "genus", "integer", at))
        edges = field_of(data, "edges", "array", "graph", default=[])
        for i, e in enumerate(edges):
            at = f"graph.edges[{i}]"
            expect(e, "array", at)
            for v in e:
                expect(v, "string", at)
            if len(e) != 2:
                raise InvalidState(f"{at} must join two vertex ids, got {len(e)}")
        return CentralFiber(
            x_genus=field_of(data, "x_genus", "integer", "graph"),
            e_parts=tuple(e_parts),
            z_parts=tuple(z_parts),
            edges=tuple((a, b) for a, b in edges),
        )


def violations(gr: CentralFiber) -> tuple[str, ...]:
    out: list[str] = []
    ids = set(gr.node_ids())
    if gr.x_genus < 0:
        out.append(f"p_a(X) = {gr.x_genus} must be >= 0")
    for i, (g, d) in enumerate(gr.e_parts):
        if g < 1:
            out.append(f"E{i}: genus {g} < 1 cannot dominate a genus-one fiber")
        if d < 1:
            out.append(f"E{i}: degree {d} over the fiber must be >= 1")
    for i, g in enumerate(gr.z_parts):
        if g < 0:
            out.append(f"Z{i}: genus {g} must be >= 0")
    for a, b in gr.edges:
        if a not in ids or b not in ids:
            out.append(f"edge ({a},{b}) uses unknown node ids")
            continue
        if a == X and b == X:
            out.append("edge X--X: internal nodes of X are pre-collapsed")
        if a.startswith("E") and b.startswith("E"):
            out.append(f"edge ({a},{b}): internal nodes of the dominating curve are pre-collapsed")
    for i in range(len(gr.z_parts)):
        deg = gr.degree(f"Z{i}")
        if deg < 1:
            out.append(f"Z{i} is isolated; contracted components must meet the fiber")
        elif gr.z_parts[i] == 0 and deg < 2:
            # a rational contracted component with one node is a (-1)-curve
            # that the minimal model contracts away
            out.append(f"Z{i} is a rational tail; the central fiber must be minimal")
    if not _connected(gr):
        out.append("central fiber must be connected")
    return tuple(out)


def _connected(gr: CentralFiber) -> bool:
    return len(_components(gr.node_ids(), gr.edges)) == 1


def check_valid(gr: CentralFiber) -> None:
    bad = violations(gr)
    if bad:
        raise ValueError("; ".join(bad))


def _z_components(gr: CentralFiber) -> list[set[str]]:
    return _components([f"Z{i}" for i in range(len(gr.z_parts))], gr.edges)


def _components(nodes, edges) -> list[set[str]]:
    """Connected components of the graph on ``nodes`` whose edges are the
    pairs in ``edges`` with both ends among the nodes, sorted."""
    parent = {n: n for n in nodes}
    for a, b in edges:
        if a in parent and b in parent:
            parent[root(parent, a)] = root(parent, b)
    comps: dict[str, set[str]] = {}
    for n in parent:
        comps.setdefault(root(parent, n), set()).add(n)
    return sorted(comps.values(), key=sorted)


def compute_T(gr: CentralFiber) -> int:
    """Connected components of Z meeting both X and the dominating curve,
    plus the number of direct nodes between them."""
    check_valid(gr)
    direct = sum(1 for a, b in gr.edges if {a[:1], b[:1]} == {"X", "E"})
    return direct + sum(1 for x_edges, e_edges in _attachments(gr) if x_edges and e_edges)


def _attachments(gr: CentralFiber) -> list[tuple[int, int]]:
    """Per connected component of Z, its numbers of edges to X and to the
    dominating curve."""
    out = []
    for comp in _z_components(gr):
        ends = [b if a in comp else a for a, b in gr.edges if (a in comp) != (b in comp)]
        out.append((ends.count(X), sum(1 for v in ends if v.startswith("E"))))
    return out


def arithmetic_genus(gr: CentralFiber) -> int:
    """Genus from the grouped degree identity

        g - 1 = (p_a(X)-1) + (p_a(E~)-1) + (d_X + d_E~)/2
                + sum_i (g(Z_i) - 1 + d_{Z_i}/2)

    in integers: on a valid graph every edge joins two known nodes, so the
    degrees sum to twice the number of edges."""
    check_valid(gr)
    parts = sum(g - 1 for g, _ in gr.e_parts) + sum(g - 1 for g in gr.z_parts)
    return gr.x_genus + parts + len(gr.edges)


@dataclass(frozen=True)
class GenusBoundReport:
    p_a_x: int
    T: int
    g: int
    holds: bool
    equality: bool
    conditions: tuple[tuple[str, bool], ...] = ()

    def to_json(self) -> dict:
        return {
            "p_a_x": self.p_a_x,
            "T": self.T,
            "g": self.g,
            "holds": self.holds,
            "equality": self.equality,
            "conditions": {name: ok for name, ok in self.conditions},
        }


def genus_bound_check(gr: CentralFiber, g: int) -> GenusBoundReport:
    """Check p_a(X) + T <= g and, on equality, the structural characterization."""
    actual = arithmetic_genus(gr)
    if actual != g:
        raise ValueError(f"genus mismatch: graph has arithmetic genus {actual}, not {g}")
    t = compute_T(gr)
    lhs = gr.x_genus + t
    conditions: tuple[tuple[str, bool], ...] = ()
    if lhs == g:
        conditions = (
            ("cover_components_all_genus_one", all(ge == 1 for ge, _ in gr.e_parts)),
            (
                "z_rational_with_two_nodes",
                all(
                    gz == 0 and gr.degree(f"Z{i}") == 2
                    for i, gz in enumerate(gr.z_parts)
                ),
            ),
            ("chains_join_once_each", _chains_join_once(gr)),
        )
    return GenusBoundReport(
        p_a_x=gr.x_genus,
        T=t,
        g=g,
        holds=lhs <= g,
        equality=lhs == g,
        conditions=conditions,
    )


def _chains_join_once(gr: CentralFiber) -> bool:
    return all(att == (1, 1) for att in _attachments(gr))
