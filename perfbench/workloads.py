"""Workload inputs drawn from a seed, and the results every run must reproduce.

The seed only renames agents, so the verdicts and the state and edge counts
below hold for every seed; the export digest depends on the names and is
compared only between runs of one seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

ABSTRACT = "abstract-recycle"
FLAT = "fb-flat"
ORDERED = "ordered"
DISORDERED = "disordered"

# fb-flat never closes on the ticket spec; the cap makes the stream finite.
FLAT_MAX_STATES = 1000

# Hand-written expected verdicts: every ticket property holds except
# no_agents, which is false because the institutional agent persists.
TICKET_VERDICTS = {
    "fifo": True,
    "liveness": True,
    "no_agents": False,
    "one_ticket": True,
    "reach_critical": True,
    "safety": True,
}
PING_VERDICTS = {
    "greetings_valid": True,
    "no_idle_waiting": True,
    "reach_got": True,
    "reach_idle_got": True,
    "seen_valid": True,
}


@dataclass(frozen=True)
class BuildJob:
    """One build and the properties checked on its transition system."""

    name: str
    spec_text: str
    async_mode: str | None  # None: build the spec itself, else its async2sync form
    mode: str
    max_states: int | None
    props: dict[str, str]  # property name -> .mlp text
    verdicts: dict[str, bool]
    states: int  # exact, for every seed
    edges: int


def _read(rel: str) -> str:
    return (CORPUS / rel).read_text(encoding="utf-8")


def _props(corpus_name: str, verdicts: dict[str, bool]) -> dict[str, str]:
    return {p: _read(f"props/{corpus_name}/{p}.mlp") for p in sorted(verdicts)}


def draw_names(rng: random.Random, k: int, avoid: set[str]) -> list[str]:
    """k distinct lower-case agent names, none a keyword or a word of the inputs."""
    consonants, vowels = "bdfgklmnprstvz", "aeiou"
    names: list[str] = []
    while len(names) < k:
        name = "".join(rng.choice(consonants) + rng.choice(vowels)
                       for _ in range(rng.randint(2, 3)))
        if name not in avoid and name not in names:
            names.append(name)
    return names


def _words(*texts: str) -> set[str]:
    from rmas.dsl import KEYWORDS

    out = set(KEYWORDS) | {"inst"}
    for t in texts:
        out |= set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", t))
    return out


def _rename(text: str, names: dict[str, str]) -> str:
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")
    return pattern.sub(lambda m: names[m.group(1)], text)


def _ticket_spec(seed: int, clients: int) -> str:
    text = _read("ticket_mutex.rmas")
    decl = "agent c1 : client\nagent c2 : client\n"
    if text.count(decl) != 1:
        raise ValueError("ticket_mutex.rmas no longer declares clients c1 and c2")
    names = draw_names(random.Random(seed), clients, _words(text))
    return text.replace(decl, "".join(f"agent {n} : client\n" for n in names))


def ticket3_verify(seed: int) -> tuple[BuildJob, ...]:
    return (BuildJob("ticket3", _ticket_spec(seed, 3), None, ABSTRACT, None,
                     _props("ticket_mutex", TICKET_VERDICTS), TICKET_VERDICTS,
                     895, 2517),)


def async_ping(seed: int) -> tuple[BuildJob, ...]:
    spec = _read("ping.rmas")
    props = _props("ping", PING_VERDICTS)
    names = draw_names(random.Random(seed), 2, _words(spec, *props.values()))
    renaming = {"alice": names[0], "bob": names[1]}
    spec = _rename(spec, renaming)
    props = {p: _rename(t, renaming) for p, t in props.items()}
    return tuple(BuildJob(f"ping-{m}", spec, m, ABSTRACT, None, props,
                          PING_VERDICTS, 902, 1600) for m in (ORDERED, DISORDERED))


def ticket_flat_stream(seed: int) -> tuple[BuildJob, ...]:
    return (BuildJob("ticket2-flat", _ticket_spec(seed, 2), None, FLAT,
                     FLAT_MAX_STATES, {}, {}, FLAT_MAX_STATES, 2642),)


# name -> seed -> the workload's builds, in the order they run
WORKLOADS = {
    "ticket3-verify": ticket3_verify,
    "async-ping": async_ping,
    "ticket-flat-stream": ticket_flat_stream,
}
