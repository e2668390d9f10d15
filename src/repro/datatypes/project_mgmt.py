"""The project-management relational schema (paper §5, Figure 11).

State: ``(projects, employees, assignments)`` with the foreign-key
invariant that every assignment references an existing employee and
project.  Updates are *blind* structural edits — permissibility (the
invariant on the post-state) carries the referential-integrity burden —
which yields exactly the paper's analysis:

- ``{addProject, deleteProject, worksOn}`` form one synchronization
  group (add/delete of the same project diverge; worksOn vs
  deleteProject both diverges and loses permissibility),
- ``Dep(worksOn) = {addProject, addEmployee}`` (a worksOn permissible
  after the referenced rows were inserted is not permissible before),
- ``addEmployee`` takes a *set* of employees, summarizes by union, and
  is conflict- and dependence-free: **reducible**.

With a conflicting group, a reducible method, dependencies, and a
query, this is the mixed-category workload of Figure 11.  The delta
invariants (``UpdateDef.keeps``) have courseware's shape: every method
but ``worksOn`` keeps the invariant, and ``worksOn`` keeps it iff its
employee and project exist.
"""

from __future__ import annotations

from ..core import (
    Call,
    ObjectSpec,
    QueryDef,
    Summarizer,
    UpdateDef,
    keeps_always,
)

__all__ = ["project_mgmt_spec"]

State = tuple[frozenset, frozenset, frozenset]
# (projects, employees, assignments of (employee, project))

_PROJECTS = ["p1", "p2"]
_EMPLOYEES = ["e1", "e2"]


def _invariant(state: State) -> bool:
    projects, employees, assignments = state
    return all(
        e in employees and p in projects for (e, p) in assignments
    )

def _add_project(project: str, state: State) -> State:
    projects, employees, assignments = state
    return (projects | {project}, employees, assignments)

def _delete_project(project: str, state: State) -> State:
    """Cascade: removing a project removes its assignments."""
    projects, employees, assignments = state
    return (
        projects - {project},
        employees,
        frozenset(a for a in assignments if a[1] != project),
    )

def _add_employee(employees_arg: frozenset, state: State) -> State:
    projects, employees, assignments = state
    return (projects, employees | employees_arg, assignments)

def _works_on(assignment: tuple[str, str], state: State) -> State:
    projects, employees, assignments = state
    return (projects, employees, assignments | {assignment})

def _works_on_keeps(assignment: tuple[str, str], state: State) -> bool:
    """The delta of ``worksOn``: only the new row's two references."""
    employee, project = assignment
    projects, employees, _assignments = state
    return employee in employees and project in projects

def _report(_arg: object, state: State) -> tuple[int, int, int]:
    projects, employees, assignments = state
    return (len(projects), len(employees), len(assignments))


def _combine_add_employee(c1: Call, c2: Call) -> Call:
    return Call("addEmployee", c1.arg | c2.arg, c2.origin, c2.rid)


def project_mgmt_spec() -> ObjectSpec:
    return ObjectSpec(
        name="project_mgmt",
        initial_state=lambda: (frozenset(), frozenset(), frozenset()),
        invariant=_invariant,
        updates=[
            UpdateDef("addProject", _add_project, keeps_always),
            UpdateDef("deleteProject", _delete_project, keeps_always),
            UpdateDef("addEmployee", _add_employee, keeps_always),
            UpdateDef("worksOn", _works_on, _works_on_keeps),
        ],
        queries=[QueryDef("query", _report)],
        summarizers=[
            Summarizer(
                group="employees",
                methods=frozenset({"addEmployee"}),
                combine=_combine_add_employee,
                identity=lambda origin: Call(
                    "addEmployee", frozenset(), origin, 0
                ),
            )
        ],
        state_gen=_random_state,
        arg_gens={
            "addProject": lambda rng: rng.choice(_PROJECTS),
            "deleteProject": lambda rng: rng.choice(_PROJECTS),
            "addEmployee": lambda rng: frozenset(
                e for e in _EMPLOYEES if rng.random() < 0.5
            ),
            "worksOn": lambda rng: (
                rng.choice(_EMPLOYEES),
                rng.choice(_PROJECTS),
            ),
        },
    )


def _random_state(rng) -> State:
    projects = frozenset(p for p in _PROJECTS if rng.random() < 0.6)
    employees = frozenset(e for e in _EMPLOYEES if rng.random() < 0.6)
    assignments = frozenset(
        (e, p)
        for e in _EMPLOYEES
        for p in _PROJECTS
        if rng.random() < 0.25
    )
    return (projects, employees, assignments)
