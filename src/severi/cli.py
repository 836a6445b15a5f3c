"""Command-line front end.

Subcommands: terms, forest, dim, gamma, genusbound, lattice, mono, hurwitz.
All output is canonical JSON (sorted keys, compact separators) on stdout,
so identical inputs produce byte-identical output.  Exit codes: 0 success,
1 domain error, 2 usage error, 3 resource budget exceeded.

A subcommand imports only the modules it runs: each ``cmd_*`` function
imports its own, and at module level only the leaf :mod:`.base` is loaded,
for the budget exception and the key-mode names.  Every invocation is a cold
process, whose cost is mostly interpreter start-up and imports, so ``dim``
loads :mod:`.surfaces` alone and ``mono factor`` does not load
:mod:`.hurwitz`.  The records of ``dim``, ``gamma``, ``genusbound``,
``lattice`` and ``mono check|lattice|factor`` are named tuples, so those
subcommands never import :mod:`dataclasses` (and, through it,
:mod:`inspect`); ``terms``, ``forest``, ``mono scan`` and ``hurwitz`` do,
for the dataclass records of the forest walk and of :mod:`.hurwitz`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .base import DEGREE, SYMBOLIC, BudgetExceeded

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_BUDGET = 3


def _emit(obj) -> None:
    # print writes the newline on its own, where appending it copies the text
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _vector(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip() != "")


def _rows(text: str) -> list[tuple[int, int]]:
    """Lattice generators ``"x,y;x,y;..."``, exactly two integers a row."""
    rows = []
    for chunk in text.split(";"):
        if chunk.strip() == "":
            continue
        row = _vector(chunk)
        if len(row) != 2:
            raise ValueError(f"row {chunk.strip()!r} needs two integers, got {len(row)}")
        rows.append(row)
    return rows


# Each model as a function of the surfaces module, which cmd_gamma imports.
_MODELS = {
    "elliptic_times_p1": lambda sf: sf.elliptic_times_p1(),
    "blowup_quadric": lambda sf: sf.blow_up(sf.quadric()),
    "blowup_p2": lambda sf: sf.blow_up(sf.projective_plane()),
    "quadric": lambda sf: sf.quadric(),
    "p2": lambda sf: sf.projective_plane(),
}


def cmd_terms(args) -> int:
    from . import degeneration as dg
    from . import states as st

    state = st.state_from_json(_read_json(args.state))
    if args.simple:
        terms = dg.successors_simple(state, key_mode=args.key_mode)
    else:
        terms = dg.successors_general(state, key_mode=args.key_mode)
    _emit(
        {
            "state": st.state_to_json(state),
            "dimension": st.dimension(state),
            "terms": [t.to_json() for t in terms],
        }
    )
    return EXIT_OK


def cmd_forest(args) -> int:
    from . import degeneration as dg
    from . import states as st

    root = st.state_from_json(_read_json(args.root))
    forest = dg.build_forest(
        [root], floor=args.floor, max_nodes=args.max_nodes, key_mode=args.key_mode
    )
    if args.dot:
        text = dg.forest_to_dot(forest)  # built first: opening truncates the file
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(text)
    _emit(forest.to_json())
    if forest.truncated:
        print(
            f"budget exceeded: forest: max_nodes={args.max_nodes} reached, partial forest printed",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    return EXIT_OK


def cmd_dim(args) -> int:
    from . import surfaces as sf

    _emit({"d": args.d, "g": args.g, "b": args.b, "dimension": sf.dim_V_ab(args.d, args.g, args.b)})
    return EXIT_OK


def cmd_gamma(args) -> int:
    from . import surfaces as sf

    model = _MODELS[args.model](sf)
    D = model.from_vector(_vector(args.D))
    tau = model.from_vector(_vector(args.tau))
    value = sf.gamma(D, tau, args.b)
    bound = sf.dim_bound(args.g, value)
    _emit(
        {
            "model": model.name,
            "gamma": value,
            "dim_bound": bound,
            "applicable": bound is not None,
        }
    )
    return EXIT_OK


def cmd_genusbound(args) -> int:
    from . import dual_graph as dgr

    graph = dgr.CentralFiber.from_json(_read_json(args.graph))
    report = dgr.genus_bound_check(graph, args.g)
    _emit(report.to_json())
    return EXIT_OK


def cmd_lattice(args) -> int:
    from . import lattices as lt

    if args.action == "snf":
        lat = lt.hnf(_rows(args.rows))
        _emit({"hnf": lat.to_json(), "snf": list(lt.snf(lat)), "index": lat.index})
    elif args.action == "sublattices":
        subs = lt.sublattices(args.e)
        _emit({"e": args.e, "count": len(subs), "lattices": [s.to_json() for s in subs]})
    elif args.action == "hat":
        lat = lt.hnf(_rows(args.rows))
        result = lt.construct_hat(lat, args.D)
        if result is None:
            _emit({"feasible": False, "m": lt.m_invariant(lat), "D": args.D})
        else:
            lhat, v = result
            _emit(
                {
                    "feasible": True,
                    "m": lt.m_invariant(lat),
                    "D": args.D,
                    "lhat": lhat.to_json(),
                    "v": list(v),
                }
            )
    elif args.action == "counts":
        out = {"d": args.d}
        if args.d >= 2:
            out["hurwitz_components"] = lt.hurwitz_component_count(args.d)
        out["global_pairs"] = len(lt.global_component_pairs(args.d))
        out["global_pairs_proper"] = len(lt.global_component_pairs(args.d, proper_only=True))
        _emit(out)
    return EXIT_OK


def cmd_mono(args) -> int:
    if args.action == "scan":
        from . import hurwitz as hw

        report = hw.scan_monodromy(args.d, args.b)
        _emit(report.to_json())
        return EXIT_OK
    from . import lattices as lt
    from . import monodromy as mo

    t = mo.HurwitzTuple.from_json(_read_json(args.tuple))
    if args.action == "check":
        bad = mo.violations(t)
        _emit({"valid": not bad, "violations": list(bad)})
        return EXIT_OK
    if args.action == "lattice":
        lat = mo.invariant_lattice(t)
        _emit(
            {
                "lattice": lat.to_json(),
                "index": lat.index,
                "primitive": lat == lt.IDENTITY,
            }
        )
        return EXIT_OK
    fac = mo.factorize(t)
    out = fac.to_json()
    out["kernel"] = mo.kernel_order_check(t).to_json()
    _emit(out)
    return EXIT_OK


def cmd_hurwitz(args) -> int:
    from . import hurwitz as hw

    tuples = hw.enumerate_tuples(args.d, args.g)
    report = hw.orbits(tuples)
    if args.dot:
        text = hw.move_graph_dot(tuples)  # built first: opening truncates the file
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(text)
    _emit(report.to_json())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="severi",
        description="Degeneration terms, dimension formulas, lattice and monodromy "
        "computations for curves on an elliptic ruled surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("terms", help="hyperplane-section terms of a state")
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--simple", action="store_true", help="use the transverse-case enumerator")
    p.add_argument("--key-mode", choices=(DEGREE, SYMBOLIC), default=DEGREE)
    p.set_defaults(func=cmd_terms)

    p = sub.add_parser("forest", help="iterated hyperplane-section forest")
    p.add_argument("--root", required=True, help="root state JSON file")
    p.add_argument("--floor", type=int, default=0, help="do not expand nodes at or below this dimension")
    p.add_argument("--max-nodes", type=int, default=10_000)
    p.add_argument("--key-mode", choices=(DEGREE, SYMBOLIC), default=DEGREE)
    p.add_argument("--dot", help="write a DOT rendering to this path")
    p.set_defaults(func=cmd_forest)

    p = sub.add_parser("dim", help="dimension d+g-2+b of a fixed/moving contact locus")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("gamma", help="deformation-bound parameter and dimension bound")
    p.add_argument("--model", choices=sorted(_MODELS), required=True)
    p.add_argument("--D", required=True, help="comma-separated divisor coefficients")
    p.add_argument("--tau", required=True, help="comma-separated curve-class coefficients")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("genusbound", help="central-fiber genus bound report")
    p.add_argument("--graph", required=True, help="central-fiber JSON file")
    p.add_argument("--g", type=int, required=True)
    p.set_defaults(func=cmd_genusbound)

    p = sub.add_parser("lattice", help="sublattice computations")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("snf", help="Hermite and Smith forms of spanned lattice")
    q.add_argument("--rows", required=True, help='generators, e.g. "2,0;0,4"')
    q = psub.add_parser("sublattices", help="all sublattices of a given index")
    q.add_argument("--e", type=int, required=True)
    q = psub.add_parser("hat", help="complementary sublattice construction")
    q.add_argument("--rows", required=True)
    q.add_argument("--D", type=int, required=True)
    q = psub.add_parser("counts", help="component counts for degree d")
    q.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("mono", help="monodromy tuple computations")
    psub = p.add_subparsers(dest="action", required=True)
    for name in ("check", "lattice", "factor"):
        q = psub.add_parser(name)
        q.add_argument("--tuple", required=True, help="tuple JSON file")
    q = psub.add_parser("scan", help="exhaustive verification scan")
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    p.set_defaults(func=cmd_mono)

    p = sub.add_parser("hurwitz", help="branch-point move orbits")
    psub = p.add_subparsers(dest="action", required=True)
    q = psub.add_parser("orbits", help="orbit partition and invariant-lattice census")
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--dot", help="write the move graph to this path")
    p.set_defaults(func=cmd_hurwitz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
