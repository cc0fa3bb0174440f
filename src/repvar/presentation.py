"""Finitely presented groups with peripheral conjugacy-class constraints.

The input format is line oriented; ``#`` starts a comment::

    group IDENT
    rank INT
    generators IDENT+
    relator LETTER*                     (any number of lines)
    peripheral IDENT = LETTER+ : ANGLE ("," ANGLE)*
    together IDENT+                     (one simultaneity group per line)

A LETTER is a generator name, with a trailing apostrophe for its
inverse (``a'``); letters are whitespace separated.  ANGLE is a
rational ``p/q`` or a finite signed decimal, measured in turns
(fractions of a full revolution) and normalized modulo 1.  Each
``together`` line joins the named peripherals into one simultaneity
group; peripherals not mentioned in any such line form singleton groups.

Words are stored as tuples of (generator index, sign) with sign +-1,
always freely reduced.  A relator that reduces to the empty word is
kept (it contributes a zero row downstream) and flagged with a warning;
it serializes as a bare ``relator`` line.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

Angle = Union[Fraction, float]
Letter = tuple[int, int]
Word = tuple[Letter, ...]

_KEYWORDS = {"group", "rank", "generators", "relator", "peripheral", "together"}


class Record:
    """Base of the record classes with their own ``__init__``, which sets each
    attribute once through :meth:`_set`; after that the attributes are
    read-only.  A plain base, so that defining a record generates no code at
    import.  Equality and hash compare the attributes named in ``_compare``
    (default: ``_fields``) between records of one class; repr shows ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compare: tuple[str, ...] | None = None

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compare or self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        text = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({text})"


class ParseError(ValueError):
    """The input text violates the presentation grammar."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


def shown(value) -> str:
    """A rejected value as an error message shows it, so that the message stays
    one short line: its repr up to 40 characters, past that an integer's digit
    count or the repr's first 40 characters."""
    text = repr(value)
    if len(text) > 40:  # a boolean's repr is short: an int here is an integer
        text = (f"<{len(text.lstrip('-'))}-digit integer>" if isinstance(value, int)
                else text[:40] + "...")
    return text


def normalize_word(word: Iterable[Letter]) -> Word:
    """Freely reduce a word; idempotent."""
    stack: list[Letter] = []
    for gen, sign in word:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +-1, got {sign!r}")
        if stack and stack[-1][0] == gen and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((int(gen), int(sign)))
    return tuple(stack)


def invert_word(word: Iterable[Letter]) -> Word:
    return tuple((gen, -sign) for gen, sign in reversed(list(word)))


def concat_words(*words: Iterable[Letter]) -> Word:
    out: list[Letter] = []
    for w in words:
        out.extend(w)
    return normalize_word(out)


def _normalize_angle(a: Angle) -> Angle:
    if isinstance(a, Fraction):
        return a % 1
    if isinstance(a, int):
        return Fraction(a) % 1
    return float(a) % 1.0


class ConjugacyClassSpec(Record):
    """Multiset of eigenvalue angles (in turns) naming a U(N) conjugacy class.

    The class is the set of unitaries with eigenvalues exp(2*pi*i*angle).
    Rational angles are kept exact; two specs are equal iff their sorted
    normalized angle multisets are equal.
    """

    angles: tuple[Angle, ...]
    _fields = ("angles",)

    def __init__(self, angles: Iterable[Angle]):
        normalized = [_normalize_angle(a) for a in angles]
        if not normalized:
            raise ValueError("a conjugacy class spec needs at least one angle")
        normalized.sort(key=lambda a: (float(a), str(a)))
        self._set(angles=tuple(normalized))

    @property
    def rank(self) -> int:
        return len(self.angles)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(a) for a in self.angles)

    def __str__(self) -> str:
        return "{" + ", ".join(format_angle(a) for a in self.angles) + "}"


class Peripheral(NamedTuple):
    name: str
    word: Word
    klass: ConjugacyClassSpec


class Presentation(Record):
    """A finitely presented group with peripheral class constraints.

    Immutable after construction.  ``groups`` partitions the peripheral
    indices into simultaneity groups (peripherals that must be conjugated
    into their target classes by a common element).
    """

    name: str
    rank: int
    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    peripherals: tuple[Peripheral, ...]
    groups: tuple[tuple[int, ...], ...]
    warnings: tuple[str, ...]
    _fields = ("name", "rank", "generators", "relators", "peripherals", "groups", "warnings")

    def __init__(
        self,
        name: str,
        rank: int,
        generators: Sequence[str],
        relators: Sequence[Iterable[Letter]] = (),
        peripherals: Sequence[Peripheral] = (),
        groups: Sequence[Sequence[int]] | None = None,
    ):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise ValueError("generator names must be unique")
        warn = []
        norm_relators = []
        for idx, rel in enumerate(relators):
            w = normalize_word(rel)
            if not w:
                warn.append(f"relator {idx + 1} reduces to the empty word")
            norm_relators.append(w)
        peripherals = tuple(
            Peripheral(p.name, normalize_word(p.word), p.klass) for p in peripherals
        )
        names = [p.name for p in peripherals]
        if len(set(names)) != len(names):
            raise ValueError("peripheral names must be unique")
        for p in peripherals:
            if p.klass.rank != rank:
                raise ValueError(
                    f"peripheral {shown(p.name)}: {p.klass.rank} angles given, rank is {rank}"
                )
            if not p.word:
                raise ValueError(f"peripheral {shown(p.name)}: empty word")
        n_per = len(peripherals)
        if groups is None:
            groups = tuple((i,) for i in range(n_per))
        else:
            groups = tuple(tuple(g) for g in groups)
            seen: set[int] = set()
            for g in groups:
                if not g:
                    raise ValueError("simultaneity groups must be nonempty")
                for i in g:
                    if not 0 <= i < n_per:
                        raise ValueError(f"peripheral index {i} out of range")
                    if i in seen:
                        raise ValueError(f"peripheral index {i} in two simultaneity groups")
                    seen.add(i)
            if seen != set(range(n_per)):
                raise ValueError("simultaneity groups must cover all peripherals")
        for w in list(norm_relators) + [p.word for p in peripherals]:
            for gen, _ in w:
                if not 0 <= gen < len(generators):
                    raise ValueError(f"generator index {gen} out of range")
        self._set(name=name, rank=int(rank), generators=generators,
                  relators=tuple(norm_relators), peripherals=peripherals, groups=groups,
                  warnings=tuple(warn))

    def word_to_string(self, word: Iterable[Letter]) -> str:
        return " ".join(
            self.generators[g] + ("'" if s < 0 else "") for g, s in word
        )


def _parse_angle(token: str, lineno: int) -> Angle:
    token = token.strip()
    try:
        if "/" in token:
            return Fraction(token)
        if token.lstrip("+-").isdigit():
            return Fraction(int(token))
        angle = float(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad angle {shown(token)}", lineno) from None
    if not math.isfinite(angle):  # nan, inf, or a decimal past the float range
        raise ParseError(f"bad angle {shown(token)}", lineno)
    return angle


def _tokens(text: str, start: int = 0) -> list[tuple[str, int]]:
    """The whitespace-separated tokens of a line's text from index start on,
    each with its 1-based column in the line."""
    return [(m.group(), start + m.start() + 1) for m in re.finditer(r"\S+", text)]


def _parse_letters(words: Sequence[tuple[str, int]], gen_index: dict[str, int], lineno: int):
    letters = []
    for tok, col in words:
        name, sign = (tok[:-1], -1) if tok.endswith("'") else (tok, 1)
        if name not in gen_index:
            raise ParseError(f"unknown generator {shown(name)}", lineno, col)
        letters.append((gen_index[name], sign))
    return letters


def parse_presentation(text: str) -> Presentation:
    """Parse a presentation document.  See the module docstring for the grammar."""
    name = None
    rank = None
    generators: list[str] | None = None
    gen_index: dict[str, int] = {}
    relators: list[list[Letter]] = []
    peripherals: list[Peripheral] = []
    together: list[tuple[int, ...]] = []
    grouped: set[int] = set()  # the peripherals of the 'together' lines so far

    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        words = _tokens(code)
        if not words:
            continue
        tokens = [tok for tok, _ in words]
        head = tokens[0]
        if head == "group":
            if name is not None:
                raise ParseError("duplicate 'group' line", lineno)
            if len(tokens) != 2:
                raise ParseError("'group' takes exactly one name", lineno)
            name = tokens[1]
        elif head == "rank":
            if rank is not None:
                raise ParseError("duplicate 'rank' line", lineno)
            try:
                rank = int(tokens[1])
            except (IndexError, ValueError):
                raise ParseError("'rank' takes one integer", lineno) from None
        elif head == "generators":
            if generators is not None:
                raise ParseError("duplicate 'generators' line", lineno)
            if len(tokens) < 2:
                raise ParseError("'generators' needs at least one name", lineno)
            generators = tokens[1:]
            for g in generators:
                if g in _KEYWORDS or g.endswith("'"):
                    raise ParseError(f"bad generator name {shown(g)}", lineno)
                if g in gen_index:
                    raise ParseError(f"duplicate generator name {shown(g)}", lineno)
                gen_index[g] = len(gen_index)
        elif head == "relator":
            if generators is None:
                raise ParseError("'relator' before 'generators'", lineno)
            relators.append(_parse_letters(words[1:], gen_index, lineno))
        elif head == "peripheral":
            if generators is None or rank is None:
                raise ParseError("'peripheral' before 'generators'/'rank'", lineno)
            body = code.strip()[len("peripheral"):].strip()
            if "=" not in body:
                raise ParseError("peripheral line needs '='", lineno)
            pname, rhs = body.split("=", 1)
            pname = pname.strip()
            if not pname or len(pname.split()) != 1:
                raise ParseError("peripheral needs exactly one name", lineno)
            if any(p.name == pname for p in peripherals):
                raise ParseError(f"duplicate peripheral name {shown(pname)}", lineno)
            if ":" not in rhs:
                raise ParseError("peripheral line needs ':' before the angles", lineno)
            word_part, angle_part = rhs.split(":", 1)
            # the word starts after the line's first '=', the one in body
            letters = _parse_letters(_tokens(word_part, code.index("=") + 1), gen_index, lineno)
            if not letters:
                raise ParseError("peripheral word must be nonempty", lineno)
            angles = [_parse_angle(tok, lineno) for tok in angle_part.split(",")]
            if len(angles) != rank:
                raise ParseError(
                    f"peripheral {shown(pname)}: {len(angles)} angles given, rank is {rank}",
                    lineno,
                )
            peripherals.append(
                Peripheral(pname, normalize_word(letters), ConjugacyClassSpec(angles))
            )
        elif head == "together":
            if len(tokens) < 2:
                raise ParseError("'together' needs at least one peripheral name", lineno)
            members = []
            for tok, col in words[1:]:
                matches = [i for i, p in enumerate(peripherals) if p.name == tok]
                if not matches:
                    raise ParseError(f"peripheral {shown(tok)} not declared", lineno, col)
                members.append(matches[0])
            if len(set(members)) != len(members):
                raise ParseError("repeated peripheral in 'together' line", lineno)
            again = next((peripherals[i].name for i in members if i in grouped), None)
            if again is not None:
                raise ParseError(f"peripheral {shown(again)} in two 'together' lines", lineno)
            grouped.update(members)
            together.append(tuple(members))
        else:
            raise ParseError(f"unknown directive {shown(head)}", lineno, words[0][1])

    if name is None:
        raise ParseError("missing 'group' line")
    if rank is None:
        raise ParseError("missing 'rank' line")
    if generators is None:
        raise ParseError("missing 'generators' line")

    singles = [(i,) for i in range(len(peripherals)) if i not in grouped]
    groups = together + singles if together else None

    try:
        return Presentation(name, rank, generators, relators, peripherals, groups)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_angle(a: Angle) -> str:
    if isinstance(a, Fraction):
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
    return repr(float(a))


def serialize_presentation(p: Presentation) -> str:
    """Canonical text for a presentation; parse(serialize(parse(t))) == parse(t)."""
    lines = [f"group {p.name}", f"rank {p.rank}", "generators " + " ".join(p.generators)]
    for rel in p.relators:
        body = p.word_to_string(rel)
        lines.append(f"relator {body}".rstrip())
    for per in p.peripherals:
        angles = ", ".join(format_angle(a) for a in per.klass.angles)
        lines.append(f"peripheral {per.name} = {p.word_to_string(per.word)} : {angles}")
    # parsing puts the 'together' groups first, then every other peripheral
    # alone in index order: write the shortest run of leading groups after
    # which the rest is that (a one-member group before a larger one too)
    groups = list(p.groups)
    lead = next(k for k in range(len(groups) + 1)
                if groups[k:] == [(i,) for i in range(len(p.peripherals))
                                  if all(i not in g for g in groups[:k])])
    for members in groups[:lead]:
        lines.append("together " + " ".join(p.peripherals[i].name for i in members))
    return "\n".join(lines) + "\n"
