"""The paper's formal content: specs, analysis, and both semantics.

Start with :class:`ObjectSpec` to define a replicated data type, run
:meth:`Coordination.analyze` to derive conflict/dependency relations
and method categories, then execute either operational semantics or
hand the coordination to the Hamband runtime (:mod:`repro.runtime`).
"""

from .abstract_semantics import AbstractMachine, GuardViolation
from .analysis import (
    CallRelations,
    CoordinationAnalyzer,
    MethodRelations,
    depends,
    invariant_sufficient,
    p_l_commutes,
    p_r_commutes,
    s_commute,
)
from .calls import Call, Label, QueryCall, RequestIdAllocator, Trace
from .categories import Category, Coordination, categorize
from .graphs import ConflictGraph, DependencyGraph, SyncGroup
from .rdma_semantics import (
    ConcreteEvent,
    DependencyMap,
    ProcState,
    RdmaMachine,
    dep_satisfied,
)
from .refinement import RefinementChecker, check_refinement, concrete_events
from .spec import (
    ObjectSpec,
    QueryDef,
    SpecError,
    Summarizer,
    UpdateDef,
    keeps_always,
)

__all__ = [
    "AbstractMachine",
    "Call",
    "CallRelations",
    "Category",
    "ConcreteEvent",
    "ConflictGraph",
    "Coordination",
    "CoordinationAnalyzer",
    "DependencyGraph",
    "DependencyMap",
    "GuardViolation",
    "Label",
    "MethodRelations",
    "ObjectSpec",
    "ProcState",
    "QueryCall",
    "QueryDef",
    "RdmaMachine",
    "RefinementChecker",
    "RequestIdAllocator",
    "SpecError",
    "Summarizer",
    "SyncGroup",
    "Trace",
    "UpdateDef",
    "categorize",
    "check_refinement",
    "concrete_events",
    "dep_satisfied",
    "depends",
    "invariant_sufficient",
    "keeps_always",
    "p_l_commutes",
    "p_r_commutes",
    "s_commute",
]
