"""Symbolic descriptors of generalized Severi varieties.

A :class:`SeveriState` names the locus of reduced curves of class
d*f + N*e and geometric genus g on the product of a genus-one curve with
P^1, whose intersection with a distinguished fiber E0 consists of

* fixed points with prescribed contact orders (``alpha``, each entry
  carrying a point label), and
* groups of moving contact points (``betas``), each group constrained so
  that the sum of its points lies in a fixed line-bundle class on E0.

Line-bundle classes are formal sums of named symbols and labeled points;
only their degrees and formal expressions are tracked, never actual
arithmetic in the Picard group.  Genus may be negative: such states
parametrize curves that contain vertical fibers.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from .base import DEGREE, SYMBOLIC, InvalidState, expect, field_of
from .profiles import Profile

PT = "pt"
SYM = "sym"


@dataclass(frozen=True)
class LineBundle:
    """A formal integer combination of named symbols and points.

    Terms are ``(kind, name, degree, coeff)`` with kind "pt" (a labeled
    point, degree 1) or "sym" (a named class of the given degree).  The
    degree of the bundle is the coefficient-weighted sum of term degrees.
    """

    terms: tuple[tuple[str, str, int, int], ...] = ()

    def __post_init__(self) -> None:
        merged: dict[tuple[str, str, int], int] = {}
        for kind, name, deg, coeff in self.terms:
            if kind not in (PT, SYM):
                raise ValueError(f"unknown term kind {kind!r}")
            if kind == PT and deg != 1:
                raise ValueError("points have degree 1")
            merged[(kind, name, deg)] = merged.get((kind, name, deg), 0) + coeff
        cleaned = tuple(
            (k, n, d, c) for (k, n, d), c in sorted(merged.items()) if c != 0
        )
        object.__setattr__(self, "terms", cleaned)

    @property
    def degree(self) -> int:
        return sum(deg * coeff for _, _, deg, coeff in self.terms)

    def __add__(self, other: "LineBundle") -> "LineBundle":
        return LineBundle(self.terms + other.terms)

    def __sub__(self, other: "LineBundle") -> "LineBundle":
        return self + (-1) * other

    def __rmul__(self, k: int) -> "LineBundle":
        return LineBundle(tuple((kk, n, d, k * c) for kk, n, d, c in self.terms))

    def point_names(self) -> tuple[str, ...]:
        return tuple(n for k, n, _, _ in self.terms if k == PT)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "expr": [
                {"kind": k, "name": n, "deg": d, "coeff": c} for k, n, d, c in self.terms
            ],
        }


def symbol(name: str, degree: int) -> LineBundle:
    return LineBundle(((SYM, name, degree, 1),))


def point(name: str) -> LineBundle:
    return LineBundle(((PT, name, 1, 1),))


@dataclass(frozen=True)
class SeveriState:
    """The tuple (d, N, g, alpha with point labels, [(beta^j, L_j)])."""

    d: int
    N: int
    g: int
    alpha: tuple[tuple[int, str], ...] = ()
    betas: tuple[tuple[Profile, LineBundle], ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.alpha, key=lambda t: (-t[0], t[1])))
        object.__setattr__(self, "alpha", ordered)

    @property
    def ell(self) -> int:
        """Number of moving groups."""
        return len(self.betas)

    def alpha_profile(self) -> Profile:
        return Profile(tuple(order for order, _ in self.alpha))

    def point_labels(self) -> tuple[str, ...]:
        """Every point label in play: alpha labels and points named in bundles."""
        labels = [lbl for _, lbl in self.alpha]
        for _, bundle in self.betas:
            labels.extend(bundle.point_names())
        return tuple(dict.fromkeys(labels))


def violations(s: SeveriState) -> tuple[str, ...]:
    """All invariant violations, each named; empty means the state is valid."""
    out: list[str] = []
    if s.d < 1:
        out.append(f"fiber degree d={s.d} must be >= 1")
    for order, lbl in s.alpha:
        if order < 1:
            out.append(f"alpha order {order} at {lbl!r} must be >= 1")
    labels = [lbl for _, lbl in s.alpha]
    if len(set(labels)) != len(labels):
        out.append("alpha point labels must be distinct")
    total = sum(order for order, _ in s.alpha) + sum(
        beta.multiplicity for beta, _ in s.betas
    )
    if total != s.d:
        out.append(f"class equation fails: m(alpha) + sum m(beta^j) = {total} != d = {s.d}")
    for j, (beta, bundle) in enumerate(s.betas):
        if bundle.degree != beta.multiplicity:
            out.append(
                f"group {j}: deg L = {bundle.degree} != m(beta) = {beta.multiplicity}"
            )
        if beta.size == 0:
            out.append(f"group {j}: empty moving group")
    return tuple(out)


def is_valid(s: SeveriState) -> bool:
    return not violations(s)


def check_valid(s: SeveriState) -> None:
    bad = violations(s)
    if bad:
        raise InvalidState("; ".join(bad))


def dimension(s: SeveriState) -> int:
    """d + g + sum_j |beta^j| - 1 - ell."""
    check_valid(s)
    return _dimension(s)


def _dimension(s: SeveriState) -> int:
    # the formula alone, for states the caller has already validated
    return s.d + s.g + sum(beta.size for beta, _ in s.betas) - 1 - s.ell


def is_normalized(s: SeveriState) -> bool:
    """True when no moving group is a singleton."""
    return all(beta.size >= 2 for beta, _ in s.betas)


def fresh_labels(s: SeveriState, count: int, stem: str) -> tuple[str, ...]:
    used = set(s.point_labels())
    out: list[str] = []
    i = 1
    while len(out) < count:
        cand = f"{stem}{i}"
        if cand not in used:
            used.add(cand)
            out.append(cand)
        i += 1
    return tuple(out)


def normalize(s: SeveriState) -> tuple[SeveriState, int]:
    """Convert every singleton group (b) to a fixed point of order b.

    The point absorbing a singleton group is a b-th root of the group's
    class, of which there are b^2; the returned factor multiplies together
    one b^2 per conversion, and the emitted state stands for any one of the
    b^2 sibling varieties.
    """
    check_valid(s)
    return _normalize(s)


def _normalize(s: SeveriState) -> tuple[SeveriState, int]:
    # normalize without validating, for states the caller has already validated
    singles = [(beta, bundle) for beta, bundle in s.betas if beta.size == 1]
    if not singles:
        return s, 1
    labels = fresh_labels(s, len(singles), stem="r")
    factor = 1
    alpha = list(s.alpha)
    for (beta, _), lbl in zip(singles, labels):
        b = beta.entries[0]
        alpha.append((b, lbl))
        factor *= b * b
    betas = tuple((beta, bundle) for beta, bundle in s.betas if beta.size >= 2)
    return SeveriState(d=s.d, N=s.N, g=s.g, alpha=tuple(alpha), betas=betas), factor


# -- canonical keys ----------------------------------------------------------

_TIE_CAP = 720  # refuse to branch over more relabelings than this


def key_tuple(s: SeveriState, mode: str = DEGREE):
    """Hashable canonical key; invariant under group reordering and, in
    degree mode, under all point relabelings.

    In symbolic mode the key also separates states whose bundle expressions
    differ; point labels are canonicalized by minimizing over relabelings
    that respect the alpha ordering (ties capped at a small bound, beyond
    which the tie order falls back to the stored labels).  Points outside
    ``alpha`` are named by their stored labels, even below the cap, so two
    relabelings of one state can get different symbolic keys.

    The key is ``(d, N, g)`` followed by :func:`shape_key`, which reads only
    ``alpha`` and ``betas``; a caller keying many states of one shape may
    compute that part once and reuse it.
    """
    return (s.d, s.N, s.g) + shape_key(s.alpha, s.betas, mode)


def shape_key(alpha, betas, mode: str = DEGREE) -> tuple:
    """The part of :func:`key_tuple` read from a stored ``alpha`` and
    ``betas``: in degree mode the alpha orders and the sorted pairs of group
    profile and bundle degree, in symbolic mode the P-named alpha orders and
    the least group forms over the relabelings."""
    if mode == DEGREE:
        groups = tuple(sorted((beta.entries, bundle.degree) for beta, bundle in betas))
        return (tuple(order for order, _ in alpha), groups)
    if mode != SYMBOLIC:
        raise ValueError(f"unknown key mode {mode!r}")
    return _symbolic_part(alpha, betas)


def canonical_key(s: SeveriState, mode: str = DEGREE) -> str:
    return _key_string(key_tuple(s, mode))


def _key_string(key) -> str:
    """The canonical key string of a tuple returned by :func:`key_tuple`."""
    return json.dumps(key, separators=(",", ":"))


def _order_runs(alpha) -> list[tuple[tuple[int, str], ...]]:
    """The runs of equal order in a stored (order-sorted) ``alpha``."""
    return [tuple(run) for _, run in itertools.groupby(alpha, key=lambda ent: ent[0])]


def _symbolic_part(alpha, betas):
    # P-names go by position and a run shares one order, so the alpha part
    # is the same under every relabeling; only the group forms are minimised.
    # Within a run the names sort as strings, which puts "P10" before "P9".
    names = [f"P{i + 1}" for i in range(len(alpha))]
    alpha_part = tuple(zip((order for order, _ in alpha), names))
    if len(alpha) >= 10:
        alpha_part = tuple(sorted(alpha_part, key=lambda t: (-t[0], t[1])))
    # per group: (profile, degree), its points (name, coeff) in bundle order,
    # and its symbol terms, which sort after "pt" and so end every form
    groups = []
    for beta, bundle in betas:
        points = [(n, c) for k, n, _, c in bundle.terms if k == PT]
        groups.append(((beta.entries, bundle.degree), points, bundle.terms[len(points) :]))
    # only the points named in a bundle appear in the forms, each by its
    # positional name unless a placement of its run's names moves it; a
    # named point alone in its run has one placement, the positional one
    named = {n for _, points, _ in groups for n, _ in points}
    positional = {lbl: n for (_, lbl), n in zip(alpha, names) if lbl in named}
    runs = _order_runs(alpha)
    if math.prod(math.factorial(len(run)) for run in runs) > _TIE_CAP:
        return alpha_part, _group_forms(groups, positional)
    placements, start = [], 0
    for run in runs:
        labels = [lbl for _, lbl in run if lbl in named]
        run_names, start = names[start : start + len(run)], start + len(run)
        if len(run) > 1 and labels:
            perms = itertools.permutations(run_names, len(labels))
            placements.append([tuple(zip(labels, p)) for p in perms])
    mappings = (positional | dict(itertools.chain(*c)) for c in itertools.product(*placements))
    return alpha_part, min(_group_forms(groups, mapping) for mapping in mappings)


def _group_forms(groups, mapping):
    # the sorted forms; the points ``mapping`` leaves out are named Q1, Q2, ...
    # in the order of the forms under ``mapping`` alone, then of the points
    def forms(names):
        return [
            head + (tuple(sorted([(PT, names.get(n, n), 1, c) for n, c in points])) + tail,)
            for head, points, tail in groups
        ]

    if len(groups) > 1:
        groups = [groups[i] for _, i in sorted(zip(forms(mapping), range(len(groups))))]
    names, q = dict(mapping), 0
    for _, points, _ in groups:
        for n, _ in points:
            if n not in names:
                q += 1
                names[n] = f"Q{q}"
    return tuple(sorted(forms(names)))


# -- JSON --------------------------------------------------------------------


def state_to_json(s: SeveriState) -> dict:
    return _state_json(s, {})


def _state_json(s: SeveriState, memo: dict) -> dict:
    """:func:`state_to_json` with the alpha and betas lists kept in ``memo``
    by the identity of the tuples, which the caller keeps alive meanwhile."""
    alpha, betas = ("alpha", id(s.alpha)), ("betas", id(s.betas))
    if alpha not in memo:
        memo[alpha] = [{"mult": order, "point": lbl} for order, lbl in s.alpha]
    if betas not in memo:
        memo[betas] = [{"profile": b.to_json(), "L": bundle.to_json()} for b, bundle in s.betas]
    return {"d": s.d, "N": s.N, "g": s.g, "alpha": memo[alpha], "betas": memo[betas]}


def state_from_json(data) -> SeveriState:
    """Parse a state in the shape of ``docs/state.schema.json``.

    A document of the wrong shape (not an object, a missing field, a field
    of the wrong JSON type) raises :class:`InvalidState` naming the field.
    """
    expect(data, "object", "state")
    alpha = []
    for i, a in enumerate(field_of(data, "alpha", "array", "state", default=[])):
        at = f"state.alpha[{i}]"
        expect(a, "object", at)
        alpha.append((field_of(a, "mult", "integer", at), field_of(a, "point", "string", at)))
    betas = []
    for j, b in enumerate(field_of(data, "betas", "array", "state", default=[])):
        at = f"state.betas[{j}]"
        expect(b, "object", at)
        profile = field_of(b, "profile", "array", at)
        for x in profile:
            expect(x, "integer", f"{at}.profile")
        bundle = _bundle_from_json(field_of(b, "L", "object", at), f"{at}.L")
        betas.append((Profile(tuple(profile)), bundle))
    return SeveriState(
        d=field_of(data, "d", "integer", "state"),
        N=field_of(data, "N", "integer", "state"),
        g=field_of(data, "g", "integer", "state"),
        alpha=tuple(alpha),
        betas=tuple(betas),
    )


def _bundle_from_json(data, where: str) -> LineBundle:
    expect(data, "object", where)
    terms = []
    for i, t in enumerate(field_of(data, "expr", "array", where, default=[])):
        at = f"{where}.expr[{i}]"
        expect(t, "object", at)
        terms.append(
            (
                field_of(t, "kind", "string", at),
                field_of(t, "name", "string", at),
                field_of(t, "deg", "integer", at),
                field_of(t, "coeff", "integer", at),
            )
        )
    lb = LineBundle(tuple(terms))
    if field_of(data, "degree", "integer", where, default=lb.degree) != lb.degree:
        raise ValueError(f"stated degree {data['degree']} != expression degree {lb.degree}")
    return lb
