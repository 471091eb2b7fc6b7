"""Every attribute the benchmark's layer trace wraps must still exist.

perfbench/trace.py replaces each (owner, attribute) in its SITES list with a
timing wrapper, looking the attribute up with `vars(owner)[attr]`. A
refactor that renames, moves or inlines one of them breaks `--trace 1` with
a KeyError; this test makes that a tier-1 failure instead. A site a module
only imports, and no longer calls, would time nothing; that fails too.
"""

import ast
import importlib.util
import inspect
import sys
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_sites():
    # Loaded from its path under its own name, since a plain `import trace`
    # may find the stdlib module; perfbench/ is on sys.path only while the
    # module imports its neighbours.
    spec = importlib.util.spec_from_file_location("perfbench_trace", PERFBENCH / "trace.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module.SITES


def test_every_trace_site_exists():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in load_sites()
        if attr not in vars(owner)
    ]
    assert not missing


def test_every_imported_trace_site_is_read_by_its_module():
    # A name a module imports from elsewhere is wrapped there so that its
    # calls from that module's own code are timed; an import kept only for
    # the trace would show a layer that no longer runs as idle.
    unread = []
    for owner, attr in load_sites():
        if not isinstance(owner, types.ModuleType):
            continue
        if getattr(vars(owner)[attr], "__module__", None) == owner.__name__:
            continue  # defined in the module itself
        read = {
            node.id
            for node in ast.walk(ast.parse(inspect.getsource(owner)))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        if attr not in read:
            unread.append(f"{owner.__name__}.{attr}")
    assert not unread
