"""The symmetry module: which agents are interchangeable, each state's
labeling and class key, and renaming."""

import itertools

import pytest

from rmas import symmetry
from rmas.builder import MODE_ABSTRACT, BuildConfig, Builder
from rmas.data import AGENT_TYPE, mk_symbol
from rmas.dsl import parse_spec
from rmas.model import install_institutional
from rmas.shallow import compile_shallow

from conftest import CORPUS

# per corpus spec: its agent lines, its members' spec and names to draw from
POPULATIONS = {
    "ticket_mutex": ("agent c1 : client\nagent c2 : client\n", "client",
                     ["c1", "c2", "c3", "c4"]),
    "contract_net": ("agent anna : participant\nagent bert : participant\n", "participant",
                     ["anna", "bert", "carl"]),
}


def _population(name, k):
    """The corpus spec with k agents of its one interchangeable spec."""
    decl, sname, names = POPULATIONS[name]
    text = (CORPUS / f"{name}.rmas").read_text()
    assert decl in text
    return compile_shallow(install_institutional(parse_spec(text.replace(
        decl, "".join(f"agent {n} : {sname}\n" for n in names[:k])))))


def _renamings(group):
    """Every renaming of group, each as to(a, a), with a memo of the fact
    sets it renames."""
    return [(dict(zip(group, perm)).get, {}) for perm in itertools.permutations(group)]


def _image(agents, to, memo):
    out = []
    for a, facts in agents:
        img = memo.get(facts)
        if img is None:
            img = memo[facts] = symmetry.renamed(facts, to)
        out.append((to(a, a), img))
    return out


@pytest.mark.parametrize("name,k,classes", [
    ("ticket_mutex", 3, 113), ("ticket_mutex", 4, 430),
    ("contract_net", 2, 91), ("contract_net", 3, 1406)])
def test_every_renaming_of_a_state_gets_its_key(name, k, classes):
    spec = _population(name, k)
    b = Builder(spec, BuildConfig(mode=MODE_ABSTRACT))
    ts = b.build()
    (group,) = symmetry.groups(spec, static_roster=True)
    assert len(group) == k and b._groups == (group,)
    assert len(b._classes) == classes  # the classes the build expanded
    labeler = symmetry.Labeler((group,))
    renamings = _renamings(group)
    for state in ts.states:
        agents, order = state
        _, key = labeler.label(agents, order)
        for to, memo in renamings:
            assert labeler.label(_image(agents, to, memo), order)[1] == key


def test_sigma_maps_a_state_onto_each_renaming_of_it():
    spec = _population("ticket_mutex", 3)
    ts = Builder(spec, BuildConfig(mode=MODE_ABSTRACT)).build()
    (group,) = symmetry.groups(spec, static_roster=True)
    labeler = symmetry.Labeler((group,))
    moved = 0
    for state in ts.states:
        agents, order = state
        labels, key = labeler.label(agents, order)
        for to, memo in _renamings(group):
            image = _image(agents, to, memo)
            other, other_key = labeler.label(image, order)
            assert other_key == key
            sigma = labeler.sigma(labels, other)
            moved += any(a is not b for a, b in sigma.items())
            assert set(_image(agents, sigma.get, {})) == set(image)
    assert moved


def test_tied_members_that_only_relate_to_each_other_can_get_other_keys():
    # each member names the next: a rotation gives the state itself, a
    # swap gives its mirror, whose members tie again and keep agent order
    group = tuple(mk_symbol(AGENT_TYPE, n) for n in ("c1", "c2", "c3"))
    labeler = symmetry.Labeler((group,))
    agents = [(a, frozenset({("Next", (b,))})) for a, b in zip(group, group[1:] + group[:1])]
    c1, c2, c3 = group
    _, key = labeler.label(agents, frozenset())
    rotate = {c1: c2, c2: c3, c3: c1}.get
    swap = {c1: c2, c2: c1}.get
    assert labeler.label(_image(agents, rotate, {}), frozenset())[1] == key
    assert labeler.label(_image(agents, swap, {}), frozenset())[1] != key


def test_a_roster_that_is_not_static_forms_no_group():
    spec = _population("ticket_mutex", 3)
    assert symmetry.groups(spec, static_roster=True)
    assert symmetry.groups(spec, static_roster=False) == ()


def test_renamed_renames_every_argument():
    a, b, c = (mk_symbol(AGENT_TYPE, n) for n in "abc")
    facts = frozenset({("R", (a, b)), ("S", (c,))})
    assert symmetry.renamed(facts, {a: b, b: a}.get) == {("R", (b, a)), ("S", (c,))}
