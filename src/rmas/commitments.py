"""Equality and densely-ordered commitments over objects and pending calls.

A commitment abstracts the results of the service calls issued in one step:
which results coincide with each other and with currently active objects, and
(for dense types) where each result sits in the total order.  Enumeration is
exhaustive and canonical so that repeated builds produce identical transition
systems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Union

from .data import DataObject, STRING, SYMBOLIC, INTEGER


class CommitmentError(Exception):
    pass


class InconsistentOrder(CommitmentError):
    pass


class ReservoirExhausted(CommitmentError):
    pass


@dataclass(frozen=True)
class CallToken:
    """One ground service call pending in the current step.

    Syntactically identical ground calls denote the same call and share
    one token.
    """

    service: str
    args: tuple[DataObject, ...]

    def sort_key(self):
        return (self.service, tuple(a.sort_key() for a in self.args))


Element = Union[DataObject, CallToken]


def element_key(e: Element):
    if isinstance(e, DataObject):
        return (0, e.sort_key())
    return (1, e.sort_key())


Cell = frozenset


def cell_object(cell: Cell) -> Optional[DataObject]:
    for e in cell:
        if isinstance(e, DataObject):
            return e
    return None


def cell_key(cell: Cell):
    return min(element_key(e) for e in cell)


@dataclass(frozen=True)
class EqualityCommitment:
    """A partition of objects and call tokens, at most one object per cell."""

    cells: tuple[Cell, ...]

    def cell_of(self, e: Element) -> Cell:
        for c in self.cells:
            if e in c:
                return c
        raise KeyError(e)

    def elements(self) -> set[Element]:
        out: set[Element] = set()
        for c in self.cells:
            out |= c
        return out

    def validate(self) -> None:
        seen: set[Element] = set()
        for c in self.cells:
            if seen & c:
                raise CommitmentError("cells are not disjoint")
            seen |= c
            if sum(1 for e in c if isinstance(e, DataObject)) > 1:
                raise CommitmentError("a cell contains two data objects")


@dataclass(frozen=True)
class DenselyOrderedCommitment:
    """An equality commitment plus the total order of its cells."""

    partition: EqualityCommitment
    pos: tuple[Cell, ...]  # pos[i] is the cell at position i+1

    def position(self, e: Element) -> int:
        cell = self.partition.cell_of(e)
        return self.pos.index(cell) + 1

    def validate(self, less: Callable[[DataObject, DataObject], bool]) -> None:
        self.partition.validate()
        if sorted(map(cell_key, self.pos)) != sorted(map(cell_key, self.partition.cells)):
            raise CommitmentError("pos is not a bijection on the cells")
        for i, c1 in enumerate(self.pos):
            for j, c2 in enumerate(self.pos):
                d1, d2 = cell_object(c1), cell_object(c2)
                if d1 is None or d2 is None:
                    continue
                if (i < j) != less(d1, d2):
                    raise CommitmentError("pos is incompatible with the object order")


def _split(S: Iterable[Element]) -> tuple[list[DataObject], list[CallToken]]:
    objs = sorted((e for e in S if isinstance(e, DataObject)), key=element_key)
    calls = sorted((e for e in S if isinstance(e, CallToken)), key=element_key)
    return objs, calls


def enumerate_equality_commitments(S: Iterable[Element]) -> Iterator[EqualityCommitment]:
    """All partitions of S with at most one data object per cell.

    Restricted-growth order: objects occupy one singleton cell each (their
    co-cells are forced apart); every call token then joins an existing cell
    or opens a new one.
    """
    objs, calls = _split(S)
    if not objs and not calls:
        yield EqualityCommitment(())
        return
    yield from _grow([{o} for o in objs], calls, 0)


def _grow(cells: list[set[Element]], calls: list[CallToken],
          i: int) -> Iterator[EqualityCommitment]:
    """The partitions that place calls[i:] into cells, each one a new cell
    or an existing one.  A module-level function, not a closure that calls
    itself, so an enumeration leaves no reference cycle behind."""
    if i == len(calls):
        yield EqualityCommitment(tuple(frozenset(c) for c in cells))
        return
    tok = calls[i]
    for c in cells:
        c.add(tok)
        yield from _grow(cells, calls, i + 1)
        c.remove(tok)
    cells.append({tok})
    yield from _grow(cells, calls, i + 1)
    cells.pop()


def enumerate_dense_commitments(
    S: Iterable[Element],
    less: Callable[[DataObject, DataObject], bool],
) -> Iterator[DenselyOrderedCommitment]:
    """All (partition, pos) pairs compatible with the object order.

    `less` must be a strict total order on the data objects of S; it may come
    from the carrier or from maintained lessThan facts.
    """
    objs, _ = _split(S)
    rank = {d: i for i, d in enumerate(check_total_order(objs, less))}
    for partition in enumerate_equality_commitments(S):
        bound = [c for c in partition.cells if cell_object(c) is not None]
        free = [c for c in partition.cells if cell_object(c) is None]
        bound.sort(key=lambda c: rank[cell_object(c)])
        n = len(bound) + len(free)
        for positions in itertools.combinations(range(n), len(free)):
            for perm in itertools.permutations(free):
                seq: list[Optional[Cell]] = [None] * n
                for p, c in zip(positions, perm):
                    seq[p] = c
                it = iter(bound)
                for k in range(n):
                    if seq[k] is None:
                        seq[k] = next(it)
                yield DenselyOrderedCommitment(partition, tuple(seq))


def check_total_order(
    objs: list[DataObject], less: Callable[[DataObject, DataObject], bool],
) -> list[DataObject]:
    """objs ranked by `less`, after checking that it is a strict total order
    on them; raises InconsistentOrder for a pair ordered both ways or neither
    way, or an object below itself.  Ranking counts the objects below each
    and keeps ties in the given order."""
    below = dict.fromkeys(objs, 0)
    for a, b in itertools.combinations(objs, 2):
        ab, ba = less(a, b), less(b, a)
        if ab == ba:
            raise InconsistentOrder(f"{a!r} and {b!r} are unordered" if not ab else
                                    f"{a!r} and {b!r} are ordered both ways")
        below[b if ab else a] += 1
    for d in objs:
        if less(d, d):
            raise InconsistentOrder(f"{d!r} compares below itself")
    return sorted(objs, key=below.__getitem__)


# ---------------------------------------------------------------------------
# Result assignment


@dataclass
class CommitmentTuple:
    """One equality commitment per unordered type, one densely-ordered
    commitment per dense type, covering that type's current active domain."""

    equality: dict[str, EqualityCommitment] = field(default_factory=dict)
    dense: dict[str, DenselyOrderedCommitment] = field(default_factory=dict)


class PoolReservoir:
    """Draws representative values from a finite pool in canonical order."""

    def __init__(self, values: Iterable[DataObject]) -> None:
        self.values = sorted(values, key=DataObject.sort_key)

    def draw(self, count: int, avoid: set[DataObject]) -> list[DataObject]:
        out = [v for v in self.values if v not in avoid][:count]
        if len(out) < count:
            raise ReservoirExhausted(
                f"need {count} distinct values, pool offers {len(out)}")
        return out


class SynthesisReservoir:
    """Synthesizes fresh values from the carrier.

    Draws are a pure function of the avoid set, so identical abstract
    situations receive identical representatives no matter when they are
    expanded.  Symbolic and string carriers take the first
    free '~'-prefixed tokens; numeric carriers count upward from just above
    everything avoided.
    """

    def __init__(self, type_name: str, carrier: str) -> None:
        self.type_name = type_name
        self.carrier = carrier

    def draw(self, count: int, avoid: set[DataObject]) -> list[DataObject]:
        out: list[DataObject] = []
        if self.carrier in (SYMBOLIC, STRING):
            prefix = f"~{self.type_name[:1].lower()}"
            n = 1
            while len(out) < count:
                v = DataObject(self.type_name, f"{prefix}{n}")
                n += 1
                if v not in avoid:
                    out.append(v)
            return out
        taken = {o.value for o in avoid if not o.is_undef()}
        base = max((v for v in taken if isinstance(v, (int, Fraction))), default=Fraction(0))
        step = 1
        while len(out) < count:
            v = Fraction(base) + step
            step += 1
            if self.carrier == INTEGER:
                cand = DataObject(self.type_name, int(v))
            else:
                cand = DataObject(self.type_name, v)
            if cand not in avoid:
                out.append(cand)
        return out


Reservoir = Union[PoolReservoir, SynthesisReservoir]

MIDPOINT = "midpoint"  # dense carrier mode: exact midpoints / unit offsets
OPAQUE = "opaque"  # order lives in facts; any distinct values do


def assign_results(
    h: CommitmentTuple,
    reservoirs: dict[str, Reservoir],
    midpoint_policy: str = MIDPOINT,
) -> dict[CallToken, DataObject]:
    """A representative substitution for every pending call.

    Same cell means same value, distinct cells distinct values, a cell with a
    data object is forced to it.  For dense types under the midpoint policy
    the values also realize the committed order in the carrier: below the
    least bound cell by unit offsets, between bound cells by exact midpoints,
    above the greatest by unit offsets.  Deterministic in (h, reservoirs).
    """
    sigma: dict[CallToken, DataObject] = {}
    for type_name in sorted(h.equality):
        part = h.equality[type_name]
        values = _assign_equality(part, type_name, reservoirs)
        _record(sigma, part.cells, values)
    for type_name in sorted(h.dense):
        dense = h.dense[type_name]
        if midpoint_policy == MIDPOINT and not isinstance(
            reservoirs.get(type_name), PoolReservoir
        ):
            values = _assign_dense_midpoints(dense, type_name)
        else:
            values = _assign_equality(dense.partition, type_name, reservoirs,
                                      cells=dense.pos)
        _record(sigma, dense.pos, values)
    return sigma


def _record(sigma, cells, values) -> None:
    for c in cells:
        v = values[c]
        for e in c:
            if isinstance(e, CallToken):
                sigma[e] = v


def _assign_equality(
    part: EqualityCommitment,
    type_name: str,
    reservoirs: dict[str, Reservoir],
    cells: Optional[tuple[Cell, ...]] = None,
) -> dict[Cell, DataObject]:
    order = cells if cells is not None else part.cells
    objects = {cell_object(c) for c in order if cell_object(c) is not None}
    values: dict[Cell, DataObject] = {}
    free = [c for c in order if cell_object(c) is None]
    if free:
        res = reservoirs.get(type_name)
        if res is None:
            raise ReservoirExhausted(f"no reservoir for type {type_name!r}")
        drawn = res.draw(len(free), objects)
    else:
        drawn = []
    it = iter(drawn)
    for c in order:
        obj = cell_object(c)
        values[c] = obj if obj is not None else next(it)
    return values


def _assign_dense_midpoints(dense: DenselyOrderedCommitment, type_name: str) -> dict[Cell, DataObject]:
    pos = dense.pos
    bound_idx = [i for i, c in enumerate(pos) if cell_object(c) is not None]
    values: dict[Cell, DataObject] = {}
    for i in bound_idx:
        values[pos[i]] = cell_object(pos[i])

    def val(i: int) -> Fraction:
        obj = values[pos[i]]
        if obj.is_undef():
            raise CommitmentError(
                "midpoint synthesis cannot order around undef; use order facts")
        return Fraction(obj.value)

    if not bound_idx:
        for i, c in enumerate(pos):
            values[c] = DataObject(type_name, Fraction(i + 1))
        return values
    first, last = bound_idx[0], bound_idx[-1]
    # below the least bound cell: unit offsets downward
    for k, i in enumerate(range(first - 1, -1, -1)):
        values[pos[i]] = DataObject(type_name, val(first) - (k + 1))
    # above the greatest: unit offsets upward
    for k, i in enumerate(range(last + 1, len(pos))):
        values[pos[i]] = DataObject(type_name, val(last) + (k + 1))
    # between consecutive bound cells: evenly spaced exact midpoints
    for a, b in zip(bound_idx, bound_idx[1:]):
        gap = b - a - 1
        if gap <= 0:
            continue
        lo, hi = val(a), val(b)
        for j in range(1, gap + 1):
            values[pos[a + j]] = DataObject(type_name, lo + (hi - lo) * j / (gap + 1))
    return values
