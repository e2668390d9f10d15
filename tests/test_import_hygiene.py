"""Import hygiene: the program imports nothing outside the standard
library, so a heavy dependency cannot creep back unnoticed (``networkx``
used to cost 0.12 s and 24 MiB of every start-up)."""

import os
import subprocess
import sys

_CHILD = """
import sys
before = set(sys.modules)
import repro, repro.runtime, repro.workload, repro.sim
import repro.datatypes, repro.cli
foreign = sorted({
    name.partition(".")[0] for name in set(sys.modules) - before
} - set(sys.stdlib_module_names) - {"repro"})
print(",".join(foreign))
"""


def test_importing_the_program_loads_only_the_standard_library():
    # A fresh interpreter: pytest's own process has plugins loaded.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    foreign = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    ).stdout.strip()
    assert not foreign, f"non-stdlib modules imported: {foreign}"


def test_the_offline_checker_has_no_replay_loop_of_its_own():
    """One checker core: ``TraceChecker.check`` drives
    ``StreamingChecker``.  A second replay loop growing back in
    ``runtime/checker.py`` — importing or constructing ``Replay``,
    stepping or reducing one — fails here, not at the next re-anchor."""
    import ast

    import repro.runtime.checker as module

    with open(module.__file__, encoding="utf-8") as fp:
        nodes = list(ast.walk(ast.parse(fp.read())))
    named = {n.id for n in nodes if isinstance(n, ast.Name)}
    named |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    named |= {a.name for n in nodes if isinstance(n, ast.ImportFrom)
              for a in n.names}
    assert "Replay" not in named
    called = {n.func.attr for n in nodes if isinstance(n, ast.Call)
              and isinstance(n.func, ast.Attribute)}
    assert not called & {"step", "reduce", "divergence"}
