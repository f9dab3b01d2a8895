import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from rmas import install_institutional, parse_spec
from rmas.data import DataObject
from rmas.shallow import compile_shallow

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def run_cli(*args, env_extra=None):
    """`python -m rmas.cli ARGS` from the repository root, importing rmas
    from `src/` whether or not the package is installed."""
    env = dict(os.environ)
    env.pop("RMAS_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "rmas.cli", *args],
                          capture_output=True, cwd=str(ROOT), env=env)


def ticket_with_names(constraint: str) -> str:
    """The ticket corpus spec whose clients also keep a string-typed
    Name("me") fact under `constraint`; HasT is over the rational Real."""
    text = (CORPUS / "ticket_mutex.rmas").read_text()
    text = text.replace("facet RF of Real\n", "facet RF of Real\ntype Str string\nfacet SF of Str\n")
    return text.replace("spec client {\n", "spec client {\n  relation Name(SF)\n"
                        "  init Name(\"me\")\n" f"  constraint {constraint}\n")


def load_corpus(name: str):
    return install_institutional(parse_spec((CORPUS / f"{name}.rmas").read_text()))


def prop_text(spec_name: str, prop_name: str) -> str:
    return (CORPUS / "props" / spec_name / f"{prop_name}.mlp").read_text()


def prop_paths(spec_name: str):
    return sorted((CORPUS / "props" / spec_name).glob("*.mlp"))


def rational_pool(type_name: str, values):
    return {type_name: tuple(DataObject(type_name, Fraction(v)) for v in values)}


@pytest.fixture(scope="session")
def ticket_spec():
    return load_corpus("ticket_mutex")


@pytest.fixture(scope="session")
def contract_spec():
    return load_corpus("contract_net")


@pytest.fixture(scope="session")
def ping_spec():
    return load_corpus("ping")


@pytest.fixture(scope="session")
def registry_spec():
    return load_corpus("registry")


@pytest.fixture(scope="session")
def ticket_shallow(ticket_spec):
    return compile_shallow(ticket_spec)


@pytest.fixture(scope="session")
def contract_shallow(contract_spec):
    return compile_shallow(contract_spec)


@pytest.fixture(scope="session")
def ping_shallow(ping_spec):
    return compile_shallow(ping_spec)
