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

import bisect
import itertools
import json
import math
from dataclasses import dataclass, field

from .base import DEGREE, SYMBOLIC, InvalidState, expect, expect_members, field_of, parsed, rows_of
from .profiles import Profile

PT = "pt"
SYM = "sym"


@dataclass(frozen=True, slots=True)
class LineBundle:
    """A formal integer combination of named symbols and points.

    Terms are ``(kind, name, degree, coeff)`` with kind "pt" (a labeled
    point, degree 1) or "sym" (a named class of the given degree).  Equal
    terms merge and zero coefficients drop, so ``terms`` is sorted and
    canonical.  The field ``degree``, the coefficient-weighted sum of term
    degrees, is computed once at construction; it is no constructor
    argument and takes no part in comparison, hashing or the repr.  A sum
    with an empty side returns the other operand itself, which is safe
    because bundles are frozen.
    """

    terms: tuple[tuple[str, str, int, int], ...] = ()
    degree: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "degree", sum(deg * coeff for _, _, deg, coeff in cleaned))

    def __add__(self, other: "LineBundle") -> "LineBundle":
        if not other.terms:
            return self
        if not self.terms:
            return other
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


@dataclass(frozen=True, slots=True)
class SeveriState:
    """The tuple (d, N, g, alpha with point labels, [(beta^j, L_j)]).

    ``alpha`` is stored as a tuple sorted by decreasing order, then label.
    It is sorted at construction when it has two or more entries or is not
    a tuple; an empty or one-entry tuple is already in that form.
    """

    d: int
    N: int
    g: int
    alpha: tuple[tuple[int, str], ...] = ()
    betas: tuple[tuple[Profile, LineBundle], ...] = ()

    def __post_init__(self) -> None:
        alpha = self.alpha
        if len(alpha) >= 2 or not isinstance(alpha, tuple):
            object.__setattr__(self, "alpha", tuple(sorted(alpha, key=lambda t: (-t[0], t[1]))))

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
    dim = s.d + s.g - 1
    for beta, _ in s.betas:
        dim += len(beta.entries) - 1
    return dim


def _at_numbers(s: SeveriState, N: int, g: int) -> SeveriState:
    """``dataclasses.replace(s, N=N, g=g)`` without ``__post_init__``, whose
    sort would find ``s.alpha`` already sorted."""
    new = object.__new__(SeveriState)
    for name, value in (("d", s.d), ("N", N), ("g", g), ("alpha", s.alpha), ("betas", s.betas)):
        object.__setattr__(new, name, value)
    return new


def is_normalized(s: SeveriState) -> bool:
    """True when no moving group is a singleton."""
    return all(beta.size >= 2 for beta, _ in s.betas)


def fresh_labels(s: SeveriState, count: int, stem: str) -> tuple[str, ...]:
    used = {lbl for _, lbl in s.alpha}
    for _, bundle in s.betas:
        used.update(n for k, n, _, _ in bundle.terms if k == PT)
    names = (f"{stem}{i}" for i in itertools.count(1))
    return tuple(itertools.islice((name for name in names if name not in used), count))


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
_P_NAMES = tuple(f"P{i}" for i in range(1, 33))  # the first alpha positions' names


def key_tuple(s: SeveriState, mode: str = DEGREE):
    """Hashable canonical key; invariant under group reordering and, in
    degree mode, under all point relabelings.

    In symbolic mode the key also separates states whose bundle expressions
    differ; point labels are canonicalized by minimizing over relabelings
    that respect the alpha ordering (ties capped at a small bound, beyond
    which the tie order falls back to the stored labels).  Points outside
    ``alpha`` are named Q1, Q2, ... in an order that reads their stored
    labels, even below the cap, so two relabelings of one state can get
    different symbolic keys.

    The key is ``(d, N, g)`` followed by :func:`shape_key`, which reads only
    ``alpha`` and ``betas``; a caller keying many states of one shape may
    compute that part once and reuse it.
    """
    return (s.d, s.N, s.g) + shape_key(s.alpha, s.betas, mode)


def shape_key(alpha, betas, mode: str = DEGREE) -> tuple:
    """The part of :func:`key_tuple` read from a stored ``alpha`` and
    ``betas``: in degree mode the alpha orders and the sorted pairs of group
    profile and bundle degree, in symbolic mode the P-named alpha orders and
    the least sorted group forms over the relabelings.  A group's form is
    its profile, its bundle degree and its bundle terms with every point
    renamed: a point of ``alpha`` by the P-name a relabeling gives it, any
    other by a Q-name in the order of the groups' forms under the P-names
    alone, then of the group's points."""
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
    names = _P_NAMES[: len(alpha)]
    if len(alpha) > len(_P_NAMES):
        names = tuple(f"P{i + 1}" for i in range(len(alpha)))
    alpha_part = tuple([(order, name) for (order, _), name in zip(alpha, names)])
    if len(alpha) >= 10:
        alpha_part = tuple(sorted(alpha_part, key=lambda t: (-t[0], t[1])))
    # per group: profile, degree, point terms and symbol terms; "pt" sorts
    # before "sym", so the points lead the terms and the symbols end a form
    groups = []
    for beta, bundle in betas:
        cut = bisect.bisect_left(bundle.terms, (SYM,))
        groups.append((beta.entries, bundle.degree, bundle.terms[:cut], bundle.terms[cut:]))
    # only the points named in a bundle appear in the forms, each by its
    # positional name unless a placement of its run's names moves it; a
    # named point alone in its run has one placement, the positional one
    named = {term[1] for group in groups for term in group[2]}
    mapping = {lbl: name for (_, lbl), name in zip(alpha, names) if lbl in named}
    placements, start = [], 0
    runs = _order_runs(alpha) if mapping else ()
    if math.prod(math.factorial(len(run)) for run in runs) <= _TIE_CAP:
        for run in runs:
            labels = [lbl for _, lbl in run if lbl in named]
            run_names, start = names[start : start + len(run)], start + len(run)
            if len(run) > 1 and labels:
                perms = itertools.permutations(run_names, len(labels))
                placements.append([tuple(zip(labels, p)) for p in perms])
    # every placement sets the same labels, so one dict serves them all
    forms = []
    for combo in itertools.product(*placements):
        for pairs in combo:
            mapping.update(pairs)
        forms.append(_group_forms(groups, mapping))
    return alpha_part, min(forms)


def _group_forms(groups, mapping):
    # the sorted forms; the points ``mapping`` leaves out are named Q1, Q2, ...
    # in the order of the forms under ``mapping`` alone, then of the points
    if len(groups) == 1:  # nothing to order: one pass names the points as they come
        ((entries, degree, points, tail),) = groups
        q, renamed = 0, []
        for _, n, _, c in points:
            q += n not in mapping  # the points left out so far
            renamed.append((PT, mapping.get(n) or f"Q{q}", 1, c))
        return ((entries, degree, tuple(sorted(renamed)) + tail),)

    def forms(names):
        return [
            (e, d, tuple(sorted([(PT, names.get(n, n), 1, c) for _, n, _, c in points])) + tail)
            for e, d, points, tail in groups
        ]

    rough = sorted(zip(forms(mapping), range(len(groups))))
    names = dict(mapping)
    for _, i in rough:
        for _, n, _, _ in groups[i][2]:
            if n not in names:
                names[n] = f"Q{len(names) - len(mapping) + 1}"
    if len(names) == len(mapping):
        return tuple(form for form, _ in rough)
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
    of the wrong JSON type, a member the schema does not list) or a bad
    value (an order below 1, a term kind or point degree :class:`LineBundle`
    refuses, a wrong stated degree) raises :class:`InvalidState` naming the
    field.
    """
    expect(data, "object", "state")
    expect_members(data, "state", "d", "N", "g", "alpha", "betas")
    alpha = tuple(rows_of(data, "alpha", "state", ("mult", "integer"), ("point", "string")))
    betas = []
    for j, (profile, bundle) in enumerate(
        rows_of(data, "betas", "state", ("profile", "array"), ("L", "object"))
    ):
        for x in profile:
            expect(x, "integer", f"state.betas[{j}].profile")
        profile = parsed(f"state.betas[{j}].profile", Profile, tuple(profile))
        betas.append((profile, _bundle_from_json(bundle, f"state.betas[{j}].L")))
    return SeveriState(
        d=field_of(data, "d", "integer", "state"),
        N=field_of(data, "N", "integer", "state"),
        g=field_of(data, "g", "integer", "state"),
        alpha=alpha,
        betas=tuple(betas),
    )


def _bundle_from_json(data, where: str) -> LineBundle:
    expect_members(data, where, "degree", "expr")
    fields = ("kind", "string"), ("name", "string"), ("deg", "integer"), ("coeff", "integer")
    lb = parsed(f"{where}.expr", LineBundle, tuple(rows_of(data, "expr", where, *fields)))
    if field_of(data, "degree", "integer", where, default=lb.degree) != lb.degree:
        stated = f"stated degree {data['degree']} != expression degree {lb.degree}"
        raise InvalidState(f"{where}.degree: {stated}")
    return lb
