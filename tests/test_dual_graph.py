import random
from fractions import Fraction

import pytest

from severi.base import InvalidState
from severi.dual_graph import (
    CentralFiber,
    _components,
    arithmetic_genus,
    compute_T,
    genus_bound_check,
    violations,
)


def chain_fiber():
    # X of genus 2, one genus-one cover component, one rational chain link
    return CentralFiber(
        x_genus=2,
        e_parts=((1, 1),),
        z_parts=(0,),
        edges=(("X", "Z0"), ("Z0", "E0")),
    )


def test_T_examples():
    assert compute_T(chain_fiber()) == 1
    # chain plus a direct node
    gr = CentralFiber(
        x_genus=1,
        e_parts=((1, 2),),
        z_parts=(0,),
        edges=(("X", "Z0"), ("Z0", "E0"), ("X", "E0")),
    )
    assert compute_T(gr) == 2
    # a contracted component meeting only X contributes nothing
    gr = CentralFiber(
        x_genus=1,
        e_parts=((1, 1),),
        z_parts=(0,),
        edges=(("X", "Z0"), ("X", "Z0"), ("X", "E0")),
    )
    assert compute_T(gr) == 1
    # three direct nodes, no contracted components
    gr = CentralFiber(x_genus=0, e_parts=((1, 2),), z_parts=(), edges=(("X", "E0"),) * 3)
    assert compute_T(gr) == 3


def test_invalid_graph_raises_invalid_state():
    gr = CentralFiber(x_genus=1, e_parts=((1, 1),), z_parts=(), edges=())
    with pytest.raises(InvalidState, match=r"^central fiber must be connected$"):
        compute_T(gr)


def test_arithmetic_genus_examples():
    assert arithmetic_genus(chain_fiber()) == 3
    gr = CentralFiber(x_genus=1, e_parts=((1, 1),), z_parts=(), edges=(("X", "E0"),))
    assert arithmetic_genus(gr) == 2
    lone = CentralFiber(x_genus=4)
    assert arithmetic_genus(lone) == 4


def test_validation():
    bad = CentralFiber(x_genus=0, e_parts=((1, 1), (1, 1)), z_parts=(), edges=(("E0", "E1"),))
    assert any("pre-collapsed" in v for v in violations(bad))
    bad = CentralFiber(x_genus=0, edges=(("X", "X"),))
    assert any("pre-collapsed" in v for v in violations(bad))
    bad = CentralFiber(x_genus=0, e_parts=(), z_parts=(0,), edges=())
    assert any("isolated" in v for v in violations(bad))
    bad = CentralFiber(x_genus=0, e_parts=((0, 1),), edges=(("X", "E0"),))
    assert any("genus" in v for v in violations(bad))
    disconnected = CentralFiber(x_genus=0, e_parts=((1, 1),), edges=())
    assert any("connected" in v for v in violations(disconnected))


@pytest.mark.parametrize(
    "graph,message",
    [
        (
            CentralFiber(x_genus=-1, e_parts=((1, 1),), edges=(("X", "E0"),)),
            "p_a(X) = -1 must be >= 0",
        ),
        (
            CentralFiber(x_genus=0, e_parts=((1, 0),), edges=(("X", "E0"),)),
            "E0: degree 0 over the fiber must be >= 1",
        ),
        (
            CentralFiber(x_genus=0, e_parts=((1, 1),), z_parts=(-1,), edges=(("X", "Z0"), ("Z0", "E0"))),
            "Z0: genus -1 must be >= 0",
        ),
    ],
    ids=["x-genus", "e-degree", "z-genus"],
)
def test_violations_name_each_number_out_of_range(graph, message):
    assert violations(graph) == (message,)


def test_genus_bound_equality_case():
    gr = chain_fiber()
    rep = genus_bound_check(gr, 3)
    assert rep.holds and rep.equality
    assert dict(rep.conditions) == {
        "cover_components_all_genus_one": True,
        "z_rational_with_two_nodes": True,
        "chains_join_once_each": True,
    }


def test_genus_bound_strict_from_z_degree():
    gr = CentralFiber(
        x_genus=1,
        e_parts=((1, 1),),
        z_parts=(0,),
        edges=(("X", "Z0"), ("Z0", "E0"), ("Z0", "E0")),
    )
    rep = genus_bound_check(gr, arithmetic_genus(gr))
    assert rep.holds and not rep.equality


def test_genus_bound_strict_from_cover_genus():
    gr = CentralFiber(x_genus=1, e_parts=((2, 1),), z_parts=(), edges=(("X", "E0"),))
    rep = genus_bound_check(gr, arithmetic_genus(gr))
    assert rep.holds and not rep.equality


def test_genus_bound_rejects_wrong_genus():
    with pytest.raises(ValueError):
        genus_bound_check(chain_fiber(), 5)


def random_fiber(rng: random.Random) -> CentralFiber:
    x_genus = rng.randint(0, 4)
    n_e = rng.randint(0, 3)
    e_parts = tuple((rng.randint(1, 3), rng.randint(1, 4)) for _ in range(n_e))
    n_z = rng.randint(0, 4)
    z_parts = tuple(rng.randint(0, 2) for _ in range(n_z))
    nodes = ["X"] + [f"E{i}" for i in range(n_e)] + [f"Z{i}" for i in range(n_z)]

    def allowed(a, b):
        if a == b == "X":
            return False
        if a.startswith("E") and b.startswith("E"):
            return False
        return True

    edges = []
    # attach every non-X node somewhere, then sprinkle extra edges
    for node in nodes[1:]:
        others = [n for n in nodes if n != node and allowed(node, n)]
        edges.append((node, rng.choice(others)))
    for _ in range(rng.randint(0, 5)):
        a, b = rng.choice(nodes), rng.choice(nodes)
        if a != b and allowed(a, b):
            edges.append((a, b))
    return CentralFiber(x_genus=x_genus, e_parts=e_parts, z_parts=z_parts, edges=tuple(edges))


def nodal_genus_oracle(gr: CentralFiber) -> int:
    """p_a = sum p_a(parts) + #edges - #parts + 1 for a nodal curve."""
    genera = [gr.x_genus] + [g for g, _ in gr.e_parts] + list(gr.z_parts)
    return sum(genera) + len(gr.edges) - len(genera) + 1


def grouped_genus_oracle(gr: CentralFiber) -> int:
    """The grouped degree identity over rationals, each degree read off the
    edges:  g - 1 = (p_a(X)-1) + (p_a(E~)-1) + (d_X + d_E~)/2
                    + sum_i (g(Z_i) - 1 + d_{Z_i}/2)."""
    d_x = Fraction(gr.degree("X"))
    d_e = Fraction(sum(gr.degree(f"E{i}") for i in range(len(gr.e_parts))))
    val = (
        Fraction(gr.x_genus - 1)
        + sum(g - 1 for g, _ in gr.e_parts)
        + (d_x + d_e) / 2
        + sum(Fraction(gz - 1) + Fraction(gr.degree(f"Z{i}")) / 2 for i, gz in enumerate(gr.z_parts))
    )
    assert val.denominator == 1
    return int(val) + 1


def test_random_graphs_match_oracle_and_claims():
    rng = random.Random(99)
    produced = 0
    while produced < 1000:
        gr = random_fiber(rng)
        if violations(gr):
            continue
        produced += 1
        g = arithmetic_genus(gr)
        assert g == nodal_genus_oracle(gr) == grouped_genus_oracle(gr)
        t = compute_T(gr)
        d_x = gr.degree("X")
        d_e = sum(gr.degree(f"E{i}") for i in range(len(gr.e_parts)))
        assert t <= d_x and t <= d_e
        rep = genus_bound_check(gr, g)
        assert rep.holds
        if rep.equality:
            assert all(ok for _, ok in rep.conditions)
        # slack of each contracted component is nonnegative
        for i, gz in enumerate(gr.z_parts):
            assert 2 * (gz - 1) + gr.degree(f"Z{i}") >= 0


def test_json_roundtrip():
    gr = chain_fiber()
    assert CentralFiber.from_json(gr.to_json()) == gr


def test_z_components_match_networkx():
    """An independent oracle for the components of the contracted locus:
    networkx on the Z-subgraph of seeded random graphs."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(2626)
    for _ in range(500):
        gr = random_fiber(rng)
        z_nodes = [f"Z{i}" for i in range(len(gr.z_parts))]
        graph = nx.Graph()
        graph.add_nodes_from(z_nodes)
        graph.add_edges_from((a, b) for a, b in gr.edges if a in graph and b in graph)
        expected = sorted(nx.connected_components(graph), key=sorted)
        assert _components(z_nodes, gr.edges) == expected, gr
