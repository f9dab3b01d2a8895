"""Typed data objects, facets, relation schemas, and database instances.

Every value in the system is a DataObject tagged with the name of its data
type; domains of distinct types are disjoint by construction.  Data objects
are interned: there is one live object per (type name, literal) pair, so
facts and databases compare and hash their arguments by identity.  A
database is a frozenset of facts: it hashes and compares in C, caches its
hash, and equals the plain frozenset of its facts.  Rationals are exact
fractions (midpoint arguments for dense orders must never round).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional, Union

if TYPE_CHECKING:
    from .queries import Query


class Undef:
    """Distinguished "undefined" literal; one per data type via tagging."""

    _inst: Optional["Undef"] = None

    def __new__(cls) -> "Undef":
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self) -> str:
        return "undef"


UNDEF = Undef()

Literal = Union[str, int, Fraction, Undef]

SYMBOLIC = "symbolic"
STRING = "string"
RATIONAL = "rational"
INTEGER = "integer"

CARRIERS = (SYMBOLIC, STRING, RATIONAL, INTEGER)

# Built-in type names: agent names and specification names behave as pure
# names and can only be tested for (in)equality.
AGENT_TYPE = "agent"
SPEC_TYPE = "spec"
INST_NAME = "inst"


class DataError(Exception):
    pass


@dataclass(frozen=True)
class DataTypeDef:
    """A data type: an infinite carrier plus its rigid relations.

    Equality is always available.  `less` is a dense total order and is only
    allowed on the rational carrier; `succ` is only allowed on integers and
    makes verification undecidable (the decidable pipelines reject it).
    """

    name: str
    carrier: str
    has_less: bool = False
    has_succ: bool = False

    def __post_init__(self) -> None:
        if self.carrier not in CARRIERS:
            raise DataError(f"unknown carrier {self.carrier!r} for type {self.name}")
        if self.has_less and self.carrier != RATIONAL:
            raise DataError(f"type {self.name}: dense order requires the rational carrier")
        if self.has_succ and self.carrier != INTEGER:
            raise DataError(f"type {self.name}: succ requires the integer carrier")


def builtin_types() -> dict[str, DataTypeDef]:
    return {
        AGENT_TYPE: DataTypeDef(AGENT_TYPE, SYMBOLIC),
        SPEC_TYPE: DataTypeDef(SPEC_TYPE, SYMBOLIC),
    }


# one weak table per (type name, literal class), from literal to the object:
# equal literals of one class (Fraction(1, 2) and Fraction(2, 4)) find the
# same entry, while 1 and Fraction(1) stay apart, so an object's value keeps
# the class it was made with whichever carrier the type name had in the spec
# that made it first.  An entry goes when nothing else holds its object.
_OBJECTS: dict[tuple[str, type], weakref.WeakValueDictionary] = {}


class DataObject:
    """A typed constant, hash-consed: there is one live object per (type
    name, literal) pair, so equality and hashing are the built-in identity
    ones.

    The constructor returns the live object made for an equal pair of the
    same literal class, if any.  Objects are immutable, and copying or
    pickling one gives back the same object.  The sort key is computed once,
    on first use.
    """

    __slots__ = ("type_name", "value", "_key", "__weakref__")

    type_name: str
    value: Literal

    def __new__(cls, type_name: str, value: Literal) -> "DataObject":
        table = _OBJECTS.get((type_name, value.__class__))
        if table is None:
            table = _OBJECTS[(type_name, value.__class__)] = weakref.WeakValueDictionary()
        obj = table.get(value)
        if obj is None:
            obj = object.__new__(cls)
            init = object.__setattr__
            init(obj, "type_name", type_name)
            init(obj, "value", value)
            init(obj, "_key", None)
            table[value] = obj
        return obj

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"DataObject is immutable: cannot set {name!r}")

    def __reduce__(self):
        return (DataObject, (self.type_name, self.value))

    def is_undef(self) -> bool:
        return isinstance(self.value, Undef)

    def sort_key(self):
        # Canonical, semantics-free ordering used for deterministic output:
        # undef first, then literals by their natural order within the carrier.
        key = self._key
        if key is None:
            if isinstance(self.value, Undef):
                key = (self.type_name, 0, "")
            elif isinstance(self.value, str):
                key = (self.type_name, 1, self.value)
            else:
                key = (self.type_name, 2, Fraction(self.value))
            object.__setattr__(self, "_key", key)
        return key

    def __repr__(self) -> str:
        return f"{self.value!r}:{self.type_name}"


def mk_symbol(type_name: str, token: str) -> DataObject:
    return DataObject(type_name, token)


def mk_string(type_name: str, s: str) -> DataObject:
    return DataObject(type_name, s)


def mk_rational(type_name: str, value) -> DataObject:
    return DataObject(type_name, Fraction(value))


def mk_integer(type_name: str, value: int) -> DataObject:
    return DataObject(type_name, int(value))


def mk_undef(type_name: str) -> DataObject:
    return DataObject(type_name, UNDEF)


def literal_matches_carrier(value: Literal, carrier: str) -> bool:
    if isinstance(value, Undef):
        return True
    if carrier in (SYMBOLIC, STRING):
        return isinstance(value, str)
    if carrier == RATIONAL:
        return isinstance(value, Fraction)
    if carrier == INTEGER:
        return isinstance(value, int)
    return False


def carrier_less(a: DataObject, b: DataObject) -> bool:
    """The rigid dense order of a carrier; undef sorts below everything."""
    if a.type_name != b.type_name:
        return False
    if a.is_undef():
        return not b.is_undef()
    if b.is_undef():
        return False
    return a.value < b.value


def carrier_succ(a: DataObject, b: DataObject) -> bool:
    """a is the successor of b (integers only)."""
    if a.type_name != b.type_name or a.is_undef() or b.is_undef():
        return False
    return a.value == b.value + 1


# ---------------------------------------------------------------------------
# Facets


@dataclass(frozen=True)
class Facet:
    """A data type restricted by a formula: a typed query over the variable
    x, or None for the base facet.  `queries.facet_member` decides
    membership and keeps its answers in `memo`, by object."""

    name: str
    base_type: str
    formula: Optional[Query] = None
    initial_objects: frozenset[DataObject] = frozenset()
    memo: dict[DataObject, bool] = field(default_factory=dict, init=False, repr=False,
                                         compare=False)

    def is_base(self) -> bool:
        return self.formula is None


# ---------------------------------------------------------------------------
# Relation schemas and database instances


@dataclass(frozen=True)
class TypedRelationSchema:
    name: str
    facets: tuple[str, ...]  # facet names, one per component

    @property
    def arity(self) -> int:
        return len(self.facets)


Fact = tuple[str, tuple[DataObject, ...]]


def fact_key(fact: Fact):
    rel, args = fact
    return (rel, tuple(a.sort_key() for a in args))


class UnknownRelation(DataError):
    pass


@dataclass(frozen=True)
class Violation:
    fact: Fact
    position: int  # 1-based component index
    facet: str


class Database(frozenset):
    """A finite set of facts under set semantics: the frozenset of its facts,
    so it hashes and compares as that set does."""

    __slots__ = ()

    def facts_for(self, rel: str) -> list[tuple[DataObject, ...]]:
        return [args for (r, args) in self if r == rel]

    def adom(self, type_name: Optional[str] = None) -> set[DataObject]:
        objs = {o for (_, args) in self for o in args}
        if type_name is None:
            return objs
        return {o for o in objs if o.type_name == type_name}

    def apply(self, adds: Iterable[Fact], dels: Iterable[Fact]) -> "Database":
        # Parallel update with priority to additions.
        return Database(self.difference(dels).union(adds))

    def canonical(self) -> list[Fact]:
        return sorted(self, key=fact_key)


def active_domain(dbs: Iterable[Database], t: DataTypeDef) -> set[DataObject]:
    """All objects of type t appearing in any fact of any of the databases."""
    out: set[DataObject] = set()
    for db in dbs:
        out |= db.adom(t.name)
    return out
