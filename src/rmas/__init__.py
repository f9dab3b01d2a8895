"""Verification toolkit for relational multiagent systems with typed data.

Pipeline: parse a `.rmas` specification, complete the institutional agent,
check well-formedness, optionally compile facets away, construct one of the
transition-system abstractions, and model-check first-order mu-calculus
properties over it.
"""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    Database,
    DataObject,
    DataTypeDef,
    Facet,
    TypedRelationSchema,
    active_domain,
)
from .model import (  # noqa: F401
    AgentSpec,
    RmasSpec,
    initial_data_domain,
    install_institutional,
)
from .queries import conforms, facet_member  # noqa: F401
from .dsl import parse_spec, serialize_spec  # noqa: F401
