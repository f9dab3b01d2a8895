"""Agents that the builder may rename, and states equal up to renaming them.

Two or more agents of one spec, not inst, that inst's initial Agent and
hasSpec facts register and that no spec text names but those facts, are
interchangeable (`groups`): in the flat modes, where no reacting action
writes hasSpec and no service that a rule calls takes or returns an agent.
A renaming permutes each group; it maps a state's successors onto the
renamed state's.

A state's labeling ranks each group's members by a signature that no
renaming changes: the member's own facts and the other agents' facts that
name it, with its name and the other members' abstracted; ties go by agent
order.  The members take the group's names in rank order, and the class key
is the state so renamed (`Labeler.label`).  So every renaming of a state
gets its key, unless tied members differ only in how they relate to each
other, as three members that each name the next.  The key holds the other
agents' facts only by a hash: a caller that takes two states under one key
for renamings of each other checks those facts (`renamed`, `Labeler.sigma`).
"""

from __future__ import annotations

import collections
import itertools
from typing import Iterable, Sequence

from .data import AGENT_TYPE, DataObject, Fact
from . import model as M
from .model import CallTerm, RmasSpec

# what a signature holds in place of its member's name and of the other
# members' names
_SELF, _OTHER = 0, 1


def groups(spec: RmasSpec, static_roster: bool) -> tuple[tuple[DataObject, ...], ...]:
    """The groups of interchangeable agents, each in agent order; none
    unless static_roster (a flat mode where no reacting action writes
    hasSpec), or where an action that a rule calls calls a service that
    takes or returns an agent."""
    if not static_roster:
        return ()
    called = {term.service for ag in spec.agent_specs.values() for rule in ag.update_rules
              for eff in ag.actions[rule.action].effects for tpl in eff.adds + eff.dels
              for term in tpl.terms if isinstance(term, CallTerm)}
    if any(spec.facets[f].base_type == AGENT_TYPE for name in called
           for f in spec.services[name].input_facets + (spec.services[name].output_facet,)):
        return ()
    named = M.spec_constants(spec, registry=False)  # inst among them
    registered = spec.inst_spec.initial_db.facts_for(M.HASSPEC_REL)
    specs_of = collections.Counter(agent for agent, _ in registered)
    by_spec: dict[DataObject, list[DataObject]] = {}
    for agent, sname in registered:
        if agent not in named and specs_of[agent] == 1:
            by_spec.setdefault(sname, []).append(agent)
    return tuple(tuple(sorted(g, key=DataObject.sort_key))
                 for _, g in sorted(by_spec.items(), key=lambda kv: kv[0].sort_key())
                 if len(g) > 1)


def renamed(facts: Iterable[Fact], to) -> frozenset[Fact]:
    """facts with each argument o replaced by to(o, o)."""
    return frozenset([(rel, tuple(map(to, args, args))) for rel, args in facts])


class Labeler:
    """States' labelings and class keys for fixed groups.  It keeps each
    member's own signature by its facts, and by the other agents' facts
    each member's signature among them and their hash under each labeling."""

    def __init__(self, groups: tuple[tuple[DataObject, ...], ...]) -> None:
        self.groups = groups
        self.members = frozenset(itertools.chain(*groups))
        others = dict.fromkeys(itertools.chain(*groups), _OTHER)
        self._abstract = {a: {**others, a: _SELF}.get for a in others}  # in group order
        self._own: dict[DataObject, dict[frozenset, tuple]] = {a: {} for a in others}
        self._among: dict[tuple, dict[DataObject, int]] = {}
        self._hashes: dict[tuple, dict[tuple, int]] = {}

    def label(self, agents: Sequence[tuple[DataObject, frozenset]], order_facts) -> tuple:
        """The labeling and the class key of the state whose agents, in
        agent order, hold agents' fact sets, under order_facts.  The
        labeling holds each member's (member, label) pair in rank order.
        The key is order_facts, the members' facts renamed by the labeling
        in rank order (the signature, for one that names no other member),
        and the hash of the other agents' facts so renamed."""
        sigs: dict[DataObject, tuple] = {}
        others = []
        for a, facts in agents:
            if a not in self.members:
                others.append(facts)
                continue
            # the member's own facts abstracted: their hash, and the facts
            # unless they name another member (then None)
            sig = self._own[a].get(facts)
            if sig is None:
                mine = renamed(facts, self._abstract[a])
                sig = self._own[a][facts] = (hash(mine), None if any(
                    _OTHER in args for _, args in mine) else mine)
            sigs[a] = sig
        others = tuple(others)
        pairs: list[tuple[DataObject, DataObject]] = []
        for group in self.groups:
            ranks = sorted(group, key=lambda a: sigs[a][0])
            if len({sigs[a][0] for a in group}) < len(group):
                # tied members: the other agents' facts about them rank them too
                among = self._among.get(others)
                if among is None:
                    among = self._among[others] = {a: hash(tuple(
                        renamed([f for f in fs if a in f[1]], to) for fs in others))
                        for a, to in self._abstract.items()}
                ranks = sorted(group, key=lambda a: (sigs[a][0], among[a]))
            pairs += zip(ranks, group)
        labels = tuple(pairs)
        to = dict(pairs).get
        facts_of = dict(agents)
        key: list = [order_facts]
        key += [sigs[a][1] if sigs[a][1] is not None else renamed(facts_of[a], to)
                for a, _ in pairs]
        hashes = self._hashes.get(labels)
        if hashes is None:
            hashes = self._hashes[labels] = {}
        h = hashes.get(others)
        if h is None:
            h = hashes[others] = hash(tuple(renamed(f, to) for f in others))
        key.append(h)
        return labels, tuple(key)

    def sigma(self, rep: tuple, labels: tuple) -> dict[DataObject, DataObject]:
        """The renaming of a state labeled rep onto one labeled labels under
        the same key: each member to the member that labels gives the
        member's label under rep."""
        name_of = {label: a for a, label in labels}
        return {a: name_of[label] for a, label in rep}
