"""Candidate components of a generic hyperplane section of a Severi state.

Cutting the locus named by a state with the hyperplane of curves through a
generic point of the distinguished fiber E0 produces components of exactly
two shapes:

* type I: one moving point, of order n, of a group of at least two becomes
  a fixed point of order n at the new point, and n times the new point's
  class is subtracted from that group's bundle;
* type II: E0 splits off with some multiplicity m >= 1; per moving group at
  most one point escapes to the curve dominating E0, and any fixed points
  are released; intact groups keep their class, the depleted groups merge,
  with the released points' class added, under a new nonempty profile tau,
  a partition of the escaped and released orders recording how the
  residual curve meets the cover of E0, and the genus drops by |tau|.

Every emitted child has dimension exactly one less than its parent.  The
enumeration is a list of suspects: nothing here claims each term really
appears, and the multiplicities are deliberately opaque placeholders.

Two enumerators are provided, one per statement, and they share one walk.
``successors_general`` implements the general statement (any normalized
state, |tau| >= 2).  ``successors_simple`` implements the statement
available for states with simple fixed points and a single transverse
moving group: it requires g >= 2, admits |tau| = 1 as well (excluding only
tau = (1)), and labels a type II term IIa when the group loses a point and
IIb when it is kept.  On common ground the two statements differ only in
the size-one tau terms; the discrepancy is deliberate and surfaced by
tests, not resolved here.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .base import BudgetExceeded, InvalidState
from .profiles import Profile, partition_count, partitions
from .states import (
    DEGREE,
    PT,
    LineBundle,
    SeveriState,
    _at_numbers,
    _dimension,
    _key_string,
    _normalize,
    _order_runs,
    _state_json,
    check_valid,
    dimension,
    fresh_labels,
    is_normalized,
    normalize,
    shape_key,
)

KIND_I = "I"
KIND_IIA = "IIa"
KIND_IIB = "IIb"
KIND_II = "II"

# The most choices of kept groups, drops and kept fixed points one type II
# walk may visit: the product over the groups j of (1 + the distinct orders
# of beta_j), times 2^|alpha| in symbolic mode or the product of (run length
# + 1) over the runs of equal orders in degree mode.  It admits one group
# 1^2 with ten order-one points in symbolic mode (2 x 2^10), not eleven.
MAX_TYPE_TWO_CHOICES = 2_048

# The most terms one call of either enumerator may emit.  A type II row
# gives one term for each m = 1..N, so the count grows with N; the largest
# test input, tests/fixtures/state_many_points.json, has 10,268 terms.
MAX_TERMS = 100_000


@dataclass(frozen=True, slots=True)
class Term:
    """One candidate component of the hyperplane section."""

    kind: str
    child: SeveriState
    m: int = 0
    tau: Profile = Profile()
    kept: tuple[int, ...] = ()
    dropped: tuple[tuple[int, int], ...] = ()

    @property
    def coefficient(self) -> str:
        """Opaque placeholder token, derived from the other fields."""
        bits = [f"kind={self.kind}", f"m={self.m}", f"tau={list(self.tau.entries)}"]
        if self.kept:
            bits.append(f"kept={list(self.kept)}")
        if self.dropped:
            bits.append(f"dropped={[list(p) for p in self.dropped]}")
        return "coeff(" + ",".join(bits) + ")"

    def to_json(self) -> dict:
        return _term_json(self, {})


def _term_json(t: Term, memo: dict) -> dict:
    """:meth:`Term.to_json` with its parts kept in ``memo`` (see :func:`_state_json`)."""
    tau, kept, dropped = ("tau", id(t.tau)), ("kept", id(t.kept)), ("dropped", id(t.dropped))
    coefficient = (t.kind, t.m, tau[1], kept[1], dropped[1])
    if coefficient not in memo:
        memo[coefficient] = t.coefficient
        memo.setdefault(tau, t.tau.to_json())
        memo.setdefault(kept, list(t.kept))
        memo.setdefault(dropped, [list(p) for p in t.dropped])
    return {
        "kind": t.kind,
        "m": t.m,
        "tau": memo[tau],
        "kept": memo[kept],
        "dropped": memo[dropped],
        "coefficient": memo[coefficient],
        "child": _state_json(t.child, memo),
    }


class _Row(NamedTuple):
    """A term of a shape without its m: the first term, at m = 0 for type I
    and m = 1 otherwise, its normalized child, the splitting factor and
    that child's shape part."""

    term: Term
    child: SeveriState
    factor: int
    part: tuple


class _Walk:
    """The term walk of one enumerator call or one forest build.

    ``shapes`` maps each parent or child shape ``(d, alpha, betas)`` met to
    one dict: under "part" the shape part of its key, once the shape has
    been checked with ``check_valid`` (which reads only those fields), and
    under ``KIND_I`` and ``KIND_II`` its rows of that type, once listed.
    """

    def __init__(self, key_mode: str, simple: bool = False):
        self.key_mode = key_mode
        self.simple = simple
        self.shapes: defaultdict = defaultdict(dict)

    def part(self, s: SeveriState) -> tuple:
        """The shape part of ``key_tuple(s, key_mode)``."""
        entry = self.shapes[(s.d, s.alpha, s.betas)]
        if "part" not in entry:
            check_valid(s)
            entry["part"] = shape_key(s.alpha, s.betas, self.key_mode)
        return entry["part"]

    def rows(self, s: SeveriState) -> list[_Row]:
        """The type I rows of the valid state ``s`` and, if N > 0, its type
        II rows.  Each type is listed once per shape: of its candidates, the
        first per (kind, tau, child shape part), sorted by that key, checked
        and made a :class:`Term`.  N does not enter the dimension and a
        child's genus is g - |tau|, so the checks hold at every ``(N, g)``."""
        entry = self.shapes[(s.d, s.alpha, s.betas)]
        rows = []
        for kind in (KIND_I, KIND_II) if s.N > 0 else (KIND_I,):
            if kind not in entry:
                if kind == KIND_I:
                    candidates = _type_one_terms(s)
                else:
                    candidates = _type_two_terms(s, self.key_mode != DEGREE, self.simple)
                first: dict = {}
                for fields in candidates:  # (kind, child, m, tau, kept, dropped)
                    first.setdefault((fields[0], fields[3].entries, self.part(fields[1])), fields)
                listed = entry[kind] = []
                drop = _dimension(s) - s.g - 1
                for _, fields in sorted(first.items()):
                    term = Term(*fields)
                    if _dimension(term.child) - term.child.g - term.tau.size != drop:
                        raise AssertionError(f"dimension drop != 1 for term {term.coefficient}")
                    if kind != KIND_I and term.tau.entries == (1,):
                        raise AssertionError("tau = (1) must never be emitted")
                    child, factor = _normalize(term.child)
                    listed.append(_Row(term, child, factor, self.part(child)))
            rows += entry[kind]
        return rows


def _terms(s: SeveriState, rows):
    """The terms of ``s`` from its rows (see :class:`_Row`), each paired
    with its row: a type I row once with m = 0, any other row once for each
    m = 1..N.

    The terms depend on ``(N, g)`` only through a shift: a term's kind,
    tau, kept, dropped and child alpha and betas do not depend on them, and
    its child sits at ``(N - m, g - |tau|)`` (type I: m = 0, empty tau).
    The terms are the first per (kind, m, tau, child key), sorted by that
    key.  Within one ``(kind, m, tau)`` the child's ``(d, N, g)`` is
    constant, and the enumeration for one m runs in the same order for
    every m, so the first-wins deduplication and the sort come down to
    ``(kind, tau, shape part)`` on the rows, the same at every ``(N, g)``;
    ``fresh_labels`` and normalization read only alpha and betas.  So one
    row list serves every state of a shape, and the terms run by kind, then
    m, then row.
    """
    for kind, group in itertools.groupby(rows, key=lambda row: row.term.kind):
        shifted = [(row, row.term, s.g - row.term.tau.size) for row in group]
        for m in (0,) if kind == KIND_I else range(1, s.N + 1):
            N = s.N - m
            for row, first, g in shifted:
                child = first.child
                if child.N != N or child.g != g:
                    child = _at_numbers(child, N, g)
                elif first.m == m:
                    yield row, first
                    continue
                yield row, Term(kind, child, m, first.tau, first.kept, first.dropped)


# -- the two statements ------------------------------------------------------


def successors_simple(s: SeveriState, key_mode: str = DEGREE) -> tuple[Term, ...]:
    """Terms of the hyperplane section for a state with alpha = 1^a (labeled)
    and a single transverse group beta = 1^b.  Requires g >= 2.  The walk is
    that of :func:`successors_general`."""
    check_valid(s)
    if s.ell != 1:
        raise InvalidState("simple enumerator needs exactly one moving group")
    beta = s.betas[0][0]
    if any(order != 1 for order, _ in s.alpha) or set(beta.entries) - {1}:
        raise InvalidState("simple enumerator needs transverse contact only")
    if s.g < 2:
        raise InvalidState(f"simple statement requires g >= 2, got g={s.g}")
    return _successors(s, key_mode, simple=True)


def successors_general(s: SeveriState, key_mode: str = DEGREE) -> tuple[Term, ...]:
    """Terms of the hyperplane section for any valid normalized state.

    A type II term keeps a sub-multiset of the fixed points ``alpha``.  In
    symbolic mode every subset of the labeled points is walked, since the
    key reads the labels.  In degree mode the key reads only the orders, so
    one subset per multiset of kept orders is walked: the first k points of
    each run of equal orders in the stored ``alpha``, for every k.  The
    output is the same: for each choice of m, kept groups and dropped
    orders, every subset with the same kept orders gives the same keys, and
    the full walk meets them first at the lexicographically least such
    subset, which is this one, so deduplication keeps the same term.
    """
    check_valid(s)
    if not is_normalized(s):
        raise InvalidState("general enumerator needs every group size >= 2; normalize first")
    return _successors(s, key_mode)


def _successors(s: SeveriState, key_mode: str, simple=False) -> tuple[Term, ...]:
    """The terms of ``s`` from one walk's rows.  Past ``MAX_TERMS`` terms (one
    per type I row, N per type II row) it raises :class:`BudgetExceeded` before building any."""
    rows = _Walk(key_mode, simple).rows(s)
    count = sum(1 if row.term.kind == KIND_I else s.N for row in rows)
    if count > MAX_TERMS:
        raise BudgetExceeded(f"terms: {count} > {MAX_TERMS}")
    return tuple(term for _, term in _terms(s, rows))


def _type_one_terms(s: SeveriState) -> list[tuple]:
    """The candidate type I terms of ``s``, at m = 0: one moving point of
    group j, if it has another, becomes fixed at a new point."""
    (p_new,) = fresh_labels(s, 1, stem="p")
    no_tau = Profile()  # one empty tau for every candidate, as Term's default is
    terms = []
    for j, (beta, bundle) in enumerate(s.betas):
        if beta.size < 2:
            continue
        for n in sorted(set(beta.entries), reverse=True):
            new_groups = list(s.betas)
            new_groups[j] = (beta.without(n), LineBundle(bundle.terms + ((PT, p_new, 1, -n),)))
            child = SeveriState(s.d, s.N, s.g, s.alpha + ((n, p_new),), tuple(new_groups))
            terms.append((KIND_I, child, 0, no_tau, (), ((j, n),)))
    return terms


def _type_two_terms(s: SeveriState, every_subset: bool, simple: bool) -> list[tuple]:
    """The candidate type II terms of ``s``, at m = 1: E0 splits off, which
    sets only the child's N, so they serve every m.  ``every_subset`` is the
    :func:`_alpha_choices` policy.  With ``simple``, those of the simple
    statement: |tau| = 1 is admitted, and a term is labeled IIb when the one
    group is kept and IIa when it loses a point.

    One choice of kept groups, drops and kept fixed points, of mass
    ``mass``, gives at least p(mass) - 1 rows, one per partition tau of size
    two or more, since their taus differ.  So when p(mass) - 1 > ``MAX_TERMS``
    it raises :class:`BudgetExceeded` before listing the partitions."""
    ell = s.ell
    no_points, no_class = Profile(), LineBundle()  # frozen, so every sum may start from them
    groups = math.prod(1 + len(set(beta.entries)) for beta, _ in s.betas)
    alpha_choices = _alpha_choices(s.alpha, every_subset, groups)
    terms = []
    for kept_mask in itertools.product((True, False), repeat=ell):
        kept = tuple(j for j in range(ell) if kept_mask[j])
        kind = (KIND_IIB if kept else KIND_IIA) if simple else KIND_II
        loose = [j for j in range(ell) if not kept_mask[j]]
        intact = tuple(s.betas[j] for j in kept)
        drop_choices = [sorted(set(s.betas[j][0].entries)) for j in loose]
        for drops in itertools.product(*drop_choices):
            dropped = tuple(zip(loose, drops))
            moving, groups_bundle = no_points, no_class
            for j, n in dropped:
                beta, bundle = s.betas[j]
                moving = moving + beta.without(n)
                groups_bundle = groups_bundle + bundle
            for alpha_kept in alpha_choices:
                alpha_dropped = [ent for ent in s.alpha if ent not in alpha_kept]
                mass = sum(o for o, _ in alpha_dropped) + sum(drops)
                if mass < 2:
                    continue
                if partition_count(mass, MAX_TERMS + 1) > MAX_TERMS + 1:
                    raise BudgetExceeded(f"terms: p({mass}) - 1 type II rows > {MAX_TERMS}")
                # each released fixed point adds order * point(label)
                merged_bundle = groups_bundle
                if alpha_dropped:
                    released = tuple((PT, lbl, 1, order) for order, lbl in alpha_dropped)
                    merged_bundle = groups_bundle + LineBundle(released)
                for tau in partitions(mass):
                    if tau.size < 2 and not simple:
                        continue
                    betas = intact + ((moving + tau, merged_bundle),)
                    child = SeveriState(s.d, s.N - 1, s.g - tau.size, alpha_kept, betas)
                    terms.append((kind, child, 1, tau, kept, dropped))
    return terms


def _alpha_choices(alpha, every_subset: bool, groups: int) -> list[tuple]:
    """The kept parts of ``alpha`` a type II walk visits: every subset, or
    one subset per multiset of orders, the first k points of each run of
    equal orders for every k from 0 to the run's length.  With ``groups``
    choices of kept groups and drops, past ``MAX_TYPE_TWO_CHOICES`` choices
    in all it raises :class:`BudgetExceeded` before listing any."""
    runs = [(ent,) for ent in alpha] if every_subset else _order_runs(alpha)
    choices = groups * math.prod(len(run) + 1 for run in runs)
    if choices > MAX_TYPE_TWO_CHOICES:
        raise BudgetExceeded(f"type II walk: {choices} choices > {MAX_TYPE_TWO_CHOICES}")
    if every_subset:
        return [c for r in range(len(alpha) + 1) for c in itertools.combinations(alpha, r)]
    return [
        tuple(itertools.chain.from_iterable(run[:k] for run, k in zip(runs, ks)))
        for ks in itertools.product(*(range(len(run) + 1) for run in runs))
    ]


# -- iterated sections: the degeneration forest ------------------------------


class ForestEdge(NamedTuple):
    parent: str
    child: str
    term: Term
    factor: int


@dataclass
class Forest:
    nodes: dict = field(default_factory=dict)  # canonical key -> SeveriState
    edges: list = field(default_factory=list)
    roots: tuple = ()
    truncated: bool = False
    # what the build did, kept out of to_json: nodes expanded, those of them
    # with no row, the distinct shapes (d, alpha, betas) among them, and all
    # distinct shapes keyed
    expanded: int = 0
    dead_ends: int = 0
    enumerated: int = 0
    keyed: int = 0

    def to_json(self) -> dict:
        """The forest as JSON, read-only: equal parts are shared objects."""
        # the memo keys by id; the forest holds every keyed object, so none
        # dies and gives its id to another during the call
        memo: dict = {}
        return {
            "nodes": {k: _state_json(v, memo) for k, v in sorted(self.nodes.items())},
            "edges": [
                {"parent": e.parent, "factor": e.factor} | _term_json(e.term, memo)
                for e in self.edges
            ],
            "roots": sorted(self.roots),
            "truncated": self.truncated,
        }


def build_forest(
    roots,
    floor: int = 0,
    max_nodes: int = 10_000,
    key_mode: str = DEGREE,
) -> Forest:
    """Closure of the root states under the general enumerator.

    Children are normalized on insertion (the b^2 splitting factor lands on
    the edge) and deduplicated by canonical key, so the result is a DAG in
    which every edge drops dimension by exactly one.  Nodes of dimension at
    most ``floor`` are kept but not expanded.  The roots count toward
    ``max_nodes`` (at least 1); if the budget trips, the partial forest is
    returned with ``truncated`` set.

    One walk (see :class:`_Walk`) serves the whole build, so each shape is
    validated and keyed once, and its rows of each type, with their
    children normalized and keyed, are listed once; the type II rows only
    for a node with N > 0.  Each key tuple is turned into its string once,
    shared by the node and every edge naming it.
    """
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    forest = Forest()
    walk = _Walk(key_mode)
    key_string = functools.cache(_key_string)
    queue: deque = deque()

    def insert(state: SeveriState, N: int, g: int, part: tuple):
        """The key string of ``state`` at ``(N, g)``, whose shape part is
        ``part``; that state is built and added as a node only if the key is
        new.  None once the budget is spent."""
        text = key_string((state.d, N, g) + part)
        if text not in forest.nodes:
            if len(forest.nodes) >= max_nodes:
                forest.truncated = True
                return None
            if state.N != N or state.g != g:
                state = _at_numbers(state, N, g)
            forest.nodes[text] = state
            queue.append(text)
        return text

    root_keys = []
    for root in roots:
        nstate, _ = normalize(root)
        key = insert(nstate, nstate.N, nstate.g, walk.part(nstate))
        if key is None:
            break
        root_keys.append(key)
    forest.roots = tuple(dict.fromkeys(root_keys))

    while queue and not forest.truncated:
        key = queue.popleft()
        state = forest.nodes[key]
        if _dimension(state) <= floor:
            continue
        forest.expanded += 1
        rows = walk.rows(state)
        if not rows:
            forest.dead_ends += 1
        for row, term in _terms(state, rows):
            ckey = insert(row.child, term.child.N, term.child.g, row.part)
            if ckey is None:
                break
            forest.edges.append(ForestEdge(parent=key, child=ckey, term=term, factor=row.factor))
    forest.enumerated = sum(KIND_I in entry for entry in walk.shapes.values())
    forest.keyed = sum("part" in entry for entry in walk.shapes.values())
    return forest


@dataclass(frozen=True)
class StableMapShape:
    """Shape of the limit stable map attached to a type II term: the residual
    part (the child state) glued at |tau| nodes to an unramified cover of E0
    of total degree m, possibly disconnected."""

    child: SeveriState
    m: int
    tau: Profile
    nodes: int
    cover_degree_partitions: tuple[tuple[int, ...], ...]


def limit_stable_map(term: Term) -> StableMapShape:
    """Describe the limit stable map of a type II term.

    Each component of the cover of E0 must absorb at least one of the |tau|
    nodes, so its component degrees form a partition of m into at most |tau|
    parts.  The partition list is advisory; the theorems do not constrain
    the pair (m, tau) further.  Past ``MAX_TERMS`` partitions of m it raises
    :class:`BudgetExceeded` before listing any.
    """
    if term.kind == KIND_I:
        raise ValueError("type I terms do not split off the fiber")
    if partition_count(term.m, MAX_TERMS) > MAX_TERMS:
        raise BudgetExceeded(f"limit stable map: p({term.m}) > {MAX_TERMS} partitions")
    parts = tuple(p.entries for p in partitions(term.m) if p.size <= term.tau.size)
    return StableMapShape(
        child=term.child,
        m=term.m,
        tau=term.tau,
        nodes=term.tau.size,
        cover_degree_partitions=parts,
    )


def forest_to_dot(forest: Forest) -> str:
    """Deterministic DOT rendering; edges labeled kind/m/tau."""
    lines = ["digraph forest {"]
    keys = {k: f"n{i}" for i, k in enumerate(sorted(forest.nodes))}
    for k in sorted(forest.nodes):
        s = forest.nodes[k]
        beta_txt = ",".join(
            f"{list(beta.entries)}" for beta, _ in s.betas
        )
        label = (
            f"d={s.d} N={s.N} g={s.g}\\n"
            f"a={list(s.alpha_profile().entries)} b=[{beta_txt}]\\n"
            f"dim={dimension(s)}"
        )
        shape = ' shape=box style=bold' if k in forest.roots else " shape=box"
        lines.append(f'  {keys[k]} [label="{label}"{shape}];')
    for e in sorted(
        forest.edges, key=lambda e: (e.parent, e.child, e.term.kind, e.term.m, e.term.tau.entries)
    ):
        label = e.term.kind
        if e.term.kind != KIND_I:
            label += f" m={e.term.m} tau={list(e.term.tau.entries)}"
        if e.factor != 1:
            label += f" x{e.factor}"
        lines.append(f'  {keys[e.parent]} -> {keys[e.child]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
