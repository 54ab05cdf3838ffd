"""Targeting specifications: AST, compact syntax parser, and lowering.

Platforms let advertisers "construct Boolean expressions for targeting"
(paper section 2.1) — e.g. *Millennials who live in Chicago, are interested
in musicals, are currently unemployed, and are not in a relationship*. A
:class:`TargetingSpec` wraps an expression tree over these predicates:

======================  =====================================================
predicate               meaning
======================  =====================================================
``attr:ID``             user has binary attribute ID set (or multi assigned)
``value:ID=V``          user's multi attribute ID is assigned value V
``age:MIN-MAX``         user age in the inclusive range
``gender:G``            user gender equals G
``country:CC``          user country equals CC
``zip:Z1/Z2/...``       user ZIP is one of the listed codes
``audience:AID``        user belongs to custom audience AID
``page:PID``            user liked page PID
``all``                 matches every user
======================  =====================================================

combined with ``&`` (AND), ``|`` (OR), ``!`` (NOT) and parentheses; ``&``
binds tighter than ``|``. :func:`parse` and ``Expr.to_string`` round-trip.

The delivery-iff-match contract evaluated here is the entire foundation of
Treads (paper section 1): "a user is supposed to see a targeted ad if and
only if they satisfy the advertiser's targeting parameters".
``Expr.matches`` is its reference semantics. Every fast path runs one
lowering instead (:func:`lower_spec`): a :class:`MaskProgram` evaluated
over a row range of the columnar user store — sweeps, per-slot candidate
lists, match counts — and tested against ``Expr.matches``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, FrozenSet, Iterator, List, Optional, Set, Tuple,
)

import numpy as np

from repro.errors import TargetingError, TargetingSyntaxError
from repro.obs.metrics import bind as _obs_bind
from repro.platform import bitset
from repro.platform.attributes import AttributeCatalog, AttributeKind
from repro.platform.users import UserProfile

#: Resolves custom-audience membership: (audience_id, user_id) -> bool.
AudienceResolver = Callable[[str, str], bool]


def _no_audiences(audience_id: str, user_id: str) -> bool:
    raise TargetingError(
        f"spec references audience {audience_id!r} but no resolver was given"
    )


class Expr:
    """Base class for targeting expression nodes."""

    def matches(self, user: UserProfile,
                resolver: AudienceResolver = _no_audiences) -> bool:
        raise NotImplementedError

    def to_string(self) -> str:
        raise NotImplementedError

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def __and__(self, other: "Expr") -> "Expr":
        return And((self, other))

    def __or__(self, other: "Expr") -> "Expr":
        return Or((self, other))

    def __invert__(self) -> "Expr":
        return Not(self)


@dataclass(frozen=True)
class All(Expr):
    """Matches every user — the paper's control ad targets the opted-in
    audience "without specifying any additional targeting parameters"."""

    def matches(self, user: UserProfile,
                resolver: AudienceResolver = _no_audiences) -> bool:
        return True

    def to_string(self) -> str:
        return "all"


@dataclass(frozen=True)
class HasAttr(Expr):
    """User has the attribute set (binary) or assigned (multi)."""

    attr_id: str

    def matches(self, user: UserProfile,
                resolver: AudienceResolver = _no_audiences) -> bool:
        return user.has_attribute(self.attr_id)

    def to_string(self) -> str:
        return f"attr:{self.attr_id}"


@dataclass(frozen=True)
class AttrIs(Expr):
    """User's multi-valued attribute is assigned a specific value."""

    attr_id: str
    value: str

    def matches(self, user: UserProfile,
                resolver: AudienceResolver = _no_audiences) -> bool:
        return user.attribute_value(self.attr_id) == self.value

    def to_string(self) -> str:
        return f"value:{self.attr_id}={self.value}"


@dataclass(frozen=True)
class AgeBetween(Expr):
    """User age within an inclusive range (platforms clamp to 13..65+)."""

    min_age: int
    max_age: int

    def __post_init__(self) -> None:
        if self.min_age > self.max_age:
            raise TargetingError(
                f"age range {self.min_age}-{self.max_age} is inverted"
            )

    def matches(self, user: UserProfile,
                resolver: AudienceResolver = _no_audiences) -> bool:
        return self.min_age <= user.age <= self.max_age

    def to_string(self) -> str:
        return f"age:{self.min_age}-{self.max_age}"


@dataclass(frozen=True)
class GenderIs(Expr):
    gender: str

    def matches(self, user: UserProfile,
                resolver: AudienceResolver = _no_audiences) -> bool:
        return user.gender == self.gender

    def to_string(self) -> str:
        return f"gender:{self.gender}"


@dataclass(frozen=True)
class InCountry(Expr):
    country: str

    def matches(self, user: UserProfile,
                resolver: AudienceResolver = _no_audiences) -> bool:
        return user.country == self.country

    def to_string(self) -> str:
        return f"country:{self.country}"


@dataclass(frozen=True)
class InZip(Expr):
    """User's ZIP code is one of the listed codes (location targeting)."""

    zips: FrozenSet[str]

    def matches(self, user: UserProfile,
                resolver: AudienceResolver = _no_audiences) -> bool:
        return user.zip_code in self.zips

    def to_string(self) -> str:
        return "zip:" + "/".join(sorted(self.zips))


@dataclass(frozen=True)
class InAudience(Expr):
    """User belongs to a custom audience (PII-based, pixel-based, ...)."""

    audience_id: str

    def matches(self, user: UserProfile,
                resolver: AudienceResolver = _no_audiences) -> bool:
        return resolver(self.audience_id, user.user_id)

    def to_string(self) -> str:
        return f"audience:{self.audience_id}"


@dataclass(frozen=True)
class LikesPage(Expr):
    """User liked a platform page — the validation's opt-in signal."""

    page_id: str

    def matches(self, user: UserProfile,
                resolver: AudienceResolver = _no_audiences) -> bool:
        return self.page_id in user.liked_pages

    def to_string(self) -> str:
        return f"page:{self.page_id}"


@dataclass(frozen=True)
class Not(Expr):
    """Exclusion — the paper's false-or-missing Treads hinge on this:
    excluding users with an attribute reveals to recipients that the
    attribute is "either set to false, or is missing" (section 3.1)."""

    child: Expr

    def matches(self, user: UserProfile,
                resolver: AudienceResolver = _no_audiences) -> bool:
        return not self.child.matches(user, resolver)

    def to_string(self) -> str:
        return f"!({self.child.to_string()})"

    def children(self) -> Tuple[Expr, ...]:
        return (self.child,)


@dataclass(frozen=True)
class And(Expr):
    operands: Tuple[Expr, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise TargetingError("AND needs at least two operands")

    def matches(self, user: UserProfile,
                resolver: AudienceResolver = _no_audiences) -> bool:
        return all(op.matches(user, resolver) for op in self.operands)

    def to_string(self) -> str:
        return "(" + " & ".join(op.to_string() for op in self.operands) + ")"

    def children(self) -> Tuple[Expr, ...]:
        return self.operands


@dataclass(frozen=True)
class Or(Expr):
    operands: Tuple[Expr, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise TargetingError("OR needs at least two operands")

    def matches(self, user: UserProfile,
                resolver: AudienceResolver = _no_audiences) -> bool:
        return any(op.matches(user, resolver) for op in self.operands)

    def to_string(self) -> str:
        return "(" + " | ".join(op.to_string() for op in self.operands) + ")"

    def children(self) -> Tuple[Expr, ...]:
        return self.operands


@dataclass(frozen=True)
class TargetingSpec:
    """An ad's complete targeting specification.

    Wraps the expression tree and offers the introspection the platform
    needs: referenced attributes (for explanations and review) and
    referenced audiences (for ownership checks).
    """

    expr: Expr

    def matches(self, user: UserProfile,
                resolver: AudienceResolver = _no_audiences) -> bool:
        return self.expr.matches(user, resolver)

    def to_string(self) -> str:
        return self.expr.to_string()

    def referenced_attributes(self) -> List[str]:
        """Attribute ids mentioned anywhere in the spec, in tree order."""
        seen: Set[str] = set()
        ordered: List[str] = []
        for node in self.expr.walk():
            attr_id: Optional[str] = None
            if isinstance(node, HasAttr):
                attr_id = node.attr_id
            elif isinstance(node, AttrIs):
                attr_id = node.attr_id
            if attr_id is not None and attr_id not in seen:
                seen.add(attr_id)
                ordered.append(attr_id)
        return ordered

    def positively_targeted_attributes(self) -> List[str]:
        """Attribute ids required (not under a NOT) by the spec.

        Used by the platform's explanation generator, which only ever
        mentions inclusion criteria.
        """
        ordered: List[str] = []

        def visit(node: Expr, negated: bool) -> None:
            if isinstance(node, Not):
                visit(node.child, not negated)
                return
            if isinstance(node, (HasAttr, AttrIs)) and not negated:
                if node.attr_id not in ordered:
                    ordered.append(node.attr_id)
            for child in node.children():
                visit(child, negated)

        visit(self.expr, False)
        return ordered

    def referenced_audiences(self) -> List[str]:
        seen: Set[str] = set()
        ordered: List[str] = []
        for node in self.expr.walk():
            if isinstance(node, InAudience) and node.audience_id not in seen:
                seen.add(node.audience_id)
                ordered.append(node.audience_id)
        return ordered

    def validate(self, catalog: AttributeCatalog) -> None:
        """Check every attribute reference against the catalog.

        Raises :class:`TargetingError` for unknown attributes, for
        ``value:`` predicates on binary attributes, and for values outside
        a multi attribute's enumerated set. The platform runs this at ad
        submission; it is also how the "partner categories shut down"
        scenario bites — specs referencing removed attributes fail.
        """
        for node in self.expr.walk():
            if isinstance(node, HasAttr):
                catalog.get(node.attr_id)
            elif isinstance(node, AttrIs):
                attribute = catalog.get(node.attr_id)
                if attribute.kind is not AttributeKind.MULTI:
                    raise TargetingError(
                        f"value targeting needs a multi attribute, "
                        f"{node.attr_id!r} is binary"
                    )
                attribute.value_index(node.value)


# ---------------------------------------------------------------------------
# Parser for the compact syntax.
# ---------------------------------------------------------------------------

_ATOM_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789:-_=./$+' "
)


class _Tokenizer:
    """Splits a spec string into '(', ')', '&', '|', '!' and atom tokens."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0

    def tokens(self) -> List[str]:
        out: List[str] = []
        while self._pos < len(self._text):
            ch = self._text[self._pos]
            if ch.isspace():
                self._pos += 1
            elif ch in "()&|!":
                out.append(ch)
                self._pos += 1
            elif ch in _ATOM_CHARS:
                out.append(self._read_atom())
            else:
                raise TargetingSyntaxError(
                    f"unexpected character {ch!r} at position {self._pos}"
                )
        return out

    def _read_atom(self) -> str:
        start = self._pos
        while (self._pos < len(self._text)
               and self._text[self._pos] in _ATOM_CHARS
               and self._text[self._pos] not in "()&|!"):
            self._pos += 1
        return self._text[start:self._pos].strip()


class _Parser:
    """Recursive-descent parser: or_expr > and_expr > unary > atom."""

    def __init__(self, tokens: List[str]):
        self._tokens = tokens
        self._pos = 0

    def parse(self) -> Expr:
        expr = self._or_expr()
        if self._pos != len(self._tokens):
            raise TargetingSyntaxError(
                f"trailing tokens: {self._tokens[self._pos:]}"
            )
        return expr

    def _peek(self) -> Optional[str]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _take(self) -> str:
        token = self._peek()
        if token is None:
            raise TargetingSyntaxError("unexpected end of spec")
        self._pos += 1
        return token

    def _or_expr(self) -> Expr:
        operands = [self._and_expr()]
        while self._peek() == "|":
            self._take()
            operands.append(self._and_expr())
        if len(operands) == 1:
            return operands[0]
        return Or(tuple(operands))

    def _and_expr(self) -> Expr:
        operands = [self._unary()]
        while self._peek() == "&":
            self._take()
            operands.append(self._unary())
        if len(operands) == 1:
            return operands[0]
        return And(tuple(operands))

    def _unary(self) -> Expr:
        if self._peek() == "!":
            self._take()
            return Not(self._unary())
        if self._peek() == "(":
            self._take()
            inner = self._or_expr()
            if self._take() != ")":
                raise TargetingSyntaxError("expected ')'")
            return inner
        return self._atom(self._take())

    def _atom(self, token: str) -> Expr:
        if token == "all":
            return All()
        if ":" not in token:
            raise TargetingSyntaxError(f"malformed predicate {token!r}")
        head, _, rest = token.partition(":")
        if head == "attr":
            return HasAttr(rest)
        if head == "value":
            attr_id, sep, value = rest.partition("=")
            if not sep or not value:
                raise TargetingSyntaxError(
                    f"value predicate needs attr=value, got {token!r}"
                )
            return AttrIs(attr_id, value)
        if head == "age":
            low, sep, high = rest.partition("-")
            if not sep:
                raise TargetingSyntaxError(f"age range needs MIN-MAX: {token!r}")
            try:
                return AgeBetween(int(low), int(high))
            except ValueError:
                raise TargetingSyntaxError(
                    f"non-numeric age bound in {token!r}"
                ) from None
            except TargetingError as error:
                # e.g. inverted range: a *syntax-level* mistake when it
                # arrives as text
                raise TargetingSyntaxError(str(error)) from None
        if head == "gender":
            return GenderIs(rest)
        if head == "country":
            return InCountry(rest)
        if head == "zip":
            codes = frozenset(z for z in rest.split("/") if z)
            if not codes:
                raise TargetingSyntaxError("zip predicate needs codes")
            return InZip(codes)
        if head == "audience":
            return InAudience(rest)
        if head == "page":
            return LikesPage(rest)
        raise TargetingSyntaxError(f"unknown predicate kind {head!r}")


def parse(text: str) -> TargetingSpec:
    """Parse the compact spec syntax into a :class:`TargetingSpec`.

    >>> parse("attr:pc-networth-006 & audience:aud-0").to_string()
    '(attr:pc-networth-006 & audience:aud-0)'
    """
    if not text or not text.strip():
        raise TargetingSyntaxError("empty targeting spec")
    tokens = _Tokenizer(text).tokens()
    return TargetingSpec(expr=_Parser(tokens).parse())


# ---------------------------------------------------------------------------
# Lowerer: Expr tree -> MaskProgram over UserColumns.
# ---------------------------------------------------------------------------
#
# Every fast path evaluates a spec through one lowering. :func:`lower_spec`
# walks the Expr tree once (:func:`_lower`) into vectorized column ops over
# the columnar store (:class:`~repro.platform.colstore.UserColumns`):
# attr/page bit-column extraction, coded demographic comparisons,
# multi-attr code matches and audience-membership bitset slices, producing
# a boolean eligibility array for rows ``[start, stop)``
# (:meth:`MaskProgram.evaluate`). The batch sweep, the per-slot candidate
# lists, the min-match defense and reach estimates all count with it.
#
# The lowerer is deliberately *exact-type* dispatched: an ``Expr`` subclass
# (say, an experiment's opaque predicate) may override ``matches`` in ways
# the column program cannot see. Such specs — and only such specs — return
# ``None`` from :func:`lower_spec`, the per-spec flag routing callers to the
# reference semantics, ``Expr.matches``.


#: Resolves an audience id to its full-population membership bitset
#: (packed ``uint64``, bit = store row). Delivery binds this to
#: :meth:`repro.platform.audiences.AudienceRegistry.member_bitset_cached`.
MaskResolver = Callable[[str], np.ndarray]


@dataclass(frozen=True)
class MaskProgram:
    """A targeting spec lowered to vectorized column operations.

    ``evaluate(cols, start, stop, resolver)`` returns a boolean array of
    length ``stop - start`` where entry ``i`` says whether store row
    ``start + i`` matches the spec — elementwise identical to
    ``Expr.matches`` on each row's
    :class:`~repro.platform.colstore.UserView`
    (``tests/platform/test_mask_lowering.py`` and
    ``tests/platform/test_targeting_compile.py`` enforce the property on
    random trees and populations).

    ``start`` must be byte-aligned (``start % 8 == 0``) so audience
    bitsets can be sliced without bit-shifting; sweep callers use
    64-aligned blocks.
    """

    source: str
    fn: Callable[..., np.ndarray]
    referenced_audiences: Tuple[str, ...]

    def evaluate(self, cols, start: int, stop: int,
                 resolver: Optional[MaskResolver] = None) -> np.ndarray:
        if resolver is None and self.referenced_audiences:
            raise TargetingError(
                f"mask program references audiences "
                f"{list(self.referenced_audiences)} but no bitset resolver "
                f"was given"
            )
        return self.fn(cols, start, stop, resolver)


def _zeros(n: int) -> np.ndarray:
    return np.zeros(n, dtype=bool)


def _bit_flags(matrix: np.ndarray, code: Optional[int],
               start: int, stop: int) -> np.ndarray:
    """Column ``code`` of a user-major bitset matrix as booleans.

    ``None`` / out-of-width codes read as all-False — the same semantics
    :func:`repro.platform.bitset.test_bit` gives scalar probes.
    """
    if code is None or code >= matrix.shape[1] * bitset.WORD_BITS:
        return _zeros(stop - start)
    word, shift = code >> 6, np.uint64(code & 63)
    return ((matrix[start:stop, word] >> shift) & np.uint64(1)).astype(bool)


def _lower(expr: Expr) -> Callable[..., np.ndarray]:
    """Recursively build the range evaluator for ``expr``.

    Leaves look their codes up on each call, so a program stays valid as
    the store interns new attributes, pages and values. Dispatch is on
    ``type(expr) is X`` — never isinstance — so subclassed nodes with
    overridden semantics fall through to :class:`_Unlowerable` and the
    ``Expr.matches`` fallback.
    """
    kind = type(expr)
    if kind is All:
        return lambda cols, start, stop, r: np.ones(stop - start, dtype=bool)
    if kind is HasAttr:
        attr_id = expr.attr_id

        def has_attr(cols, start, stop, r):
            out = _bit_flags(cols.attr_bits, cols.attrs.get(attr_id),
                             start, stop)
            multi = cols.multi_cols.get(attr_id)
            if multi is not None:
                out |= multi[start:stop] != 0
            return out

        return has_attr
    if kind is AttrIs:
        attr_id, value = expr.attr_id, expr.value

        def attr_is(cols, start, stop, r):
            multi = cols.multi_cols.get(attr_id)
            code = (None if multi is None
                    else cols.multi_vocabs[attr_id].get(value))
            if code is None:
                return _zeros(stop - start)
            return multi[start:stop] == code + 1

        return attr_is
    if kind is AgeBetween:
        lo, hi = expr.min_age, expr.max_age
        return lambda cols, start, stop, r: (
            (cols.age[start:stop] >= lo) & (cols.age[start:stop] <= hi))
    if kind is GenderIs or kind is InCountry:
        if kind is GenderIs:
            value, column, vocab = expr.gender, "gender", "genders"
        else:
            value, column, vocab = expr.country, "country", "countries"

        def coded(cols, start, stop, r):
            code = getattr(cols, vocab).get(value)
            if code is None:
                return _zeros(stop - start)
            return getattr(cols, column)[start:stop] == code

        return coded
    if kind is InZip:
        zips = sorted(expr.zips)

        def in_zip(cols, start, stop, r):
            codes = [c for c in (cols.zips.get(z) for z in zips)
                     if c is not None]
            if not codes:
                return _zeros(stop - start)
            return np.isin(cols.zip[start:stop],
                           np.asarray(codes, dtype=np.int32))

        return in_zip
    if kind is InAudience:
        audience_id = expr.audience_id
        return lambda cols, start, stop, r: bitset.unpack_range(
            r(audience_id), start, stop)
    if kind is LikesPage:
        page_id = expr.page_id
        return lambda cols, start, stop, r: _bit_flags(
            cols.page_bits, cols.pages.get(page_id), start, stop)
    if kind is Not:
        child = _lower(expr.child)
        return lambda cols, start, stop, r: ~child(cols, start, stop, r)
    if kind is And or kind is Or:
        parts = [_lower(op) for op in expr.operands]

        def combine(cols, start, stop, r, fold=(np.ndarray.__iand__
                                                if kind is And
                                                else np.ndarray.__ior__)):
            out = parts[0](cols, start, stop, r)
            for part in parts[1:]:
                fold(out, part(cols, start, stop, r))
            return out

        return combine
    raise _Unlowerable(type(expr).__qualname__)


class _Unlowerable(Exception):
    """Internal: the Expr tree contains a node the lowerer can't handle."""


def _lower_key(expr: Expr) -> Tuple[str, Tuple[str, ...]]:
    """Cache key: canonical string *plus* the exact node types.

    The string form alone would alias an ``Expr`` subclass with its base
    (both print the same), letting a cached base-class program serve a
    subclass whose overridden ``matches`` it does not honor — or a cached
    fallback verdict block a perfectly lowerable base spec.
    """
    return (expr.to_string(),
            tuple(type(node).__qualname__ for node in expr.walk()))


#: Lowered-program cache. ``None`` values are cached too: a spec that
#: falls back once falls back forever (specs are immutable).
_LOWER_CACHE: dict = {}
_LOWER_MISSING = object()

#: Late-bound lowerer instruments (see :func:`repro.obs.metrics.bind`) —
#: lowered-program builds and per-spec fallbacks to ``Expr.matches``.
_obs_lower = _obs_bind(lambda reg: (
    reg.counter("targeting.specs_lowered"),
    reg.counter("targeting.lower_fallbacks"),
))


def lower_spec(spec: "TargetingSpec | Expr | str") -> Optional[MaskProgram]:
    """Lower a spec to a :class:`MaskProgram`, or ``None`` (cached).

    Accepts a :class:`TargetingSpec`, a bare :class:`Expr`, or the
    compact spec syntax. ``None`` is the per-spec fallback flag: the tree
    contains a node the column algebra cannot express (in practice, an
    ``Expr`` subclass with overridden semantics), so the caller must
    evaluate that spec with ``Expr.matches`` instead.
    """
    if isinstance(spec, str):
        expr = parse(spec).expr
    elif isinstance(spec, TargetingSpec):
        expr = spec.expr
    else:
        expr = spec
    key = _lower_key(expr)
    cached = _LOWER_CACHE.get(key, _LOWER_MISSING)
    if cached is not _LOWER_MISSING:
        return cached
    lowered_c, fallback_c = _obs_lower()
    try:
        fn = _lower(expr)
    except _Unlowerable:
        fallback_c.inc()
        _LOWER_CACHE[key] = None
        return None
    lowered_c.inc()
    audiences = tuple(
        node.audience_id for node in expr.walk() if type(node) is InAudience)
    program = MaskProgram(
        source=expr.to_string(),
        fn=fn,
        referenced_audiences=audiences,
    )
    _LOWER_CACHE[key] = program
    return program
