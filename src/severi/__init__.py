"""Degeneration combinatorics for curves on the product of a genus-one curve
with the projective line, and for simply branched covers of genus-one curves.

The pieces fit together as follows: tangency profiles (:mod:`.profiles`)
and formal line-bundle bookkeeping (:mod:`.states`) name generalized Severi
varieties; :mod:`.degeneration` enumerates the candidate components of
their hyperplane sections and iterates them into a forest; :mod:`.surfaces`
holds the intersection tables and dimension formulas the enumeration is
balanced against; :mod:`.dual_graph` checks the central-fiber genus bound;
:mod:`.lattices` classifies unramified covers of a torus as sublattices of
Z^2; :mod:`.monodromy` and :mod:`.hurwitz` model covers by permutation
tuples, factor them through their maximal unramified subcover, and compute
orbits under the branch-point moves.  :mod:`.base`, which imports none of
them, holds the exceptions and JSON checks they share.
"""

import importlib

# Each public name and the submodule that defines it.  The submodules are
# imported on first access (PEP 562), so that ``import severi`` and a CLI
# subcommand load only the modules they use.
_HOMES = {
    "Profile": "profiles",
    "LineBundle": "states",
    "SeveriState": "states",
    "point": "states",
    "symbol": "states",
    "Lattice2": "lattices",
    "HurwitzTuple": "monodromy",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value
