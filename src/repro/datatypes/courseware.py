"""The courseware relational schema (paper §5, Figure 13).

State: ``(courses, students, enrollments)`` with the foreign-key
invariant that every enrollment references an existing student and
course.  The analysis yields the paper's structure:

- one synchronization group ``{addCourse, deleteCourse, enroll}``,
- ``Dep(enroll) = {addCourse, registerStudent}``,
- ``registerStudent`` is conflict-free and dependence-free but adds a
  *single* student (not summarizable): **irreducible conflict-free**,
  which is why Figure 13(b) shows its response time unaffected by
  leader failure.

Every method declares its delta invariant (``UpdateDef.keeps``): adding
a course or a student and the cascading delete cannot break a foreign
key, and an enrollment keeps the invariant iff its student and course
exist — so a guard reads two rows, not every enrollment.
"""

from __future__ import annotations

from ..core import ObjectSpec, QueryDef, UpdateDef, keeps_always

__all__ = ["courseware_spec"]

State = tuple[frozenset, frozenset, frozenset]
# (courses, students, enrollments of (student, course))

_COURSES = ["crs1", "crs2"]
_STUDENTS = ["stu1", "stu2"]


def _invariant(state: State) -> bool:
    courses, students, enrollments = state
    return all(s in students and c in courses for (s, c) in enrollments)

def _add_course(course: str, state: State) -> State:
    courses, students, enrollments = state
    return (courses | {course}, students, enrollments)

def _delete_course(course: str, state: State) -> State:
    """Cascade: removing a course removes its enrollments."""
    courses, students, enrollments = state
    return (
        courses - {course},
        students,
        frozenset(e for e in enrollments if e[1] != course),
    )

def _register_student(student: str, state: State) -> State:
    courses, students, enrollments = state
    return (courses, students | {student}, enrollments)

def _enroll(enrollment: tuple[str, str], state: State) -> State:
    courses, students, enrollments = state
    return (courses, students, enrollments | {enrollment})

def _enroll_keeps(enrollment: tuple[str, str], state: State) -> bool:
    """The delta of ``enroll``: only the new row's two references."""
    student, course = enrollment
    courses, students, _enrollments = state
    return student in students and course in courses

def _report(_arg: object, state: State) -> tuple[int, int, int]:
    courses, students, enrollments = state
    return (len(courses), len(students), len(enrollments))


def courseware_spec() -> ObjectSpec:
    return ObjectSpec(
        name="courseware",
        initial_state=lambda: (frozenset(), frozenset(), frozenset()),
        invariant=_invariant,
        updates=[
            UpdateDef("addCourse", _add_course, keeps_always),
            UpdateDef("deleteCourse", _delete_course, keeps_always),
            UpdateDef("registerStudent", _register_student, keeps_always),
            UpdateDef("enroll", _enroll, _enroll_keeps),
        ],
        queries=[QueryDef("query", _report)],
        state_gen=_random_state,
        arg_gens={
            "addCourse": lambda rng: rng.choice(_COURSES),
            "deleteCourse": lambda rng: rng.choice(_COURSES),
            "registerStudent": lambda rng: rng.choice(_STUDENTS),
            "enroll": lambda rng: (
                rng.choice(_STUDENTS),
                rng.choice(_COURSES),
            ),
        },
    )


def _random_state(rng) -> State:
    courses = frozenset(c for c in _COURSES if rng.random() < 0.6)
    students = frozenset(s for s in _STUDENTS if rng.random() < 0.6)
    enrollments = frozenset(
        (s, c)
        for s in _STUDENTS
        for c in _COURSES
        if rng.random() < 0.25
    )
    return (courses, students, enrollments)
