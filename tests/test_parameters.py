"""Every defaulted parameter and field in the package has a caller that sets it.

A value that nothing in ``src/`` or ``bench/`` ever sets has one value in
use: it is a constant, and a settable one is an untested configuration.
This scan reads the source with ``ast``. It checks each function parameter
that has a default and each defaulted field of a dataclass or NamedTuple in
``src/exobench``. One counts as set when a call in ``src/`` or ``bench/``
(tests do not count) of a function or class of that name passes it by
keyword, by position or through a starred argument, when a ``replace`` or
``_replace`` call names it, or when an attribute of that name is assigned.
Callees and fields are matched by name alone, so a call of another function
of the same name, or a store to another attribute of the same name, can hide
an unset value.

A ``field(default_factory=...)`` gives each instance a fresh container of
its own; it is state, not a setting, and is not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Values that only tests set, each with its reason. (``Episode``'s
#: ``voluntary_nmm`` and ``initial_motor`` are set by ``run_episode``.)
ALLOWED = {
    "run_episode.voluntary_nmm":
        "fault injection: the safety-abort tests drive the hand with a NaN or huge torque",
    "run_episode.initial_motor":
        "fault injection: the engine tests start the motor away from the cable take-up",
    "MotorState.velocity_mm_s":
        "fault injection: the engine tests start the motor moving",
    "count_direction_reversals.min_speed_mm_s":
        "the dead band of the episode summaries planned in ROADMAP item 1",
    "time_to_open.threshold_deg":
        "the open threshold of the episode summaries planned in ROADMAP item 1",
}


def _is_default_factory(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "field"
            and any(k.arg == "default_factory" for k in node.keywords))


def _is_record_class(node: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple: a class whose fields its constructor takes."""
    names = {getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
             for d in node.decorator_list}
    return "dataclass" in names or any(getattr(b, "id", None) == "NamedTuple" for b in node.bases)


def declared(files) -> dict[str, tuple[str, str, int | None]]:
    """Each defaulted parameter or field: its ``owner.name`` label, and the callee
    name, parameter name and positional index a call would set it by."""
    found = {}

    def visit(node, owner: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_record_class(child):
                    fields = [s for s in child.body
                              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                    for index, stmt in enumerate(fields):
                        if stmt.value is not None and not _is_default_factory(stmt.value):
                            name = stmt.target.id
                            found[f"{child.name}.{name}"] = (child.name, name, index)
                visit(child, child)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                skip = 1 if owner is not None and not static and positional else 0
                callee = owner.name if owner is not None and child.name == "__init__" else child.name
                label = f"{owner.name}.{child.name}" if owner is not None else child.name
                for index, arg in enumerate(positional):
                    if index >= len(positional) - len(args.defaults):
                        found[f"{label}.{arg.arg}"] = (callee, arg.arg, index - skip)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found[f"{label}.{arg.arg}"] = (callee, arg.arg, None)
                visit(child, None)
            else:
                visit(child, owner)

    for path in files:
        visit(ast.parse(path.read_text(), str(path)), None)
    return found


def setters(files) -> tuple[dict[str, list[ast.Call]], set[str]]:
    """Every call in ``files`` by callee name, and the names set by
    ``replace``, ``_replace`` or an attribute store."""
    calls: dict[str, list[ast.Call]] = {}
    stored: set[str] = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
                if name in ("replace", "_replace"):
                    stored.update(k.arg for k in node.keywords if k.arg)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stored.add(node.attr)
    return calls, stored


def _sets(call: ast.Call, name: str, index: int | None) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):  # None: **kwargs
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def unset(package, callers) -> set[str]:
    """The defaulted parameters and fields declared in ``package`` that no call
    or store in ``callers`` sets."""
    calls, stored = setters(callers)
    return {
        label for label, (callee, name, index) in declared(package).items()
        if name not in stored and not any(_sets(c, name, index) for c in calls.get(callee, ()))
    }


def test_every_default_has_a_caller():
    package = sorted((ROOT / "src" / "exobench").rglob("*.py"))
    callers = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    assert unset(package, callers) == set(ALLOWED)


def test_the_scan_sees_each_way_of_setting(tmp_path):
    source = '''
from dataclasses import dataclass, field, replace
from typing import NamedTuple

def f(a, b=1, *, c=2): ...
def g(a, b=1): ...
def h(a, b=1): ...
def unset(a, b=1, *, c=2): ...

@dataclass
class D:
    x: int
    y: int = 0
    z: int = 1
    w: int = 2
    v: list = field(default_factory=list)

class N(NamedTuple):
    p: int = 0

class M:
    def m(self, q=1): ...

f(0, c=3)
g(0, 1)
h(*[0, 1])
D(0, 1)
replace(d, z=3)
d.w = 4
N(**kw)
M().m(2)
'''
    path = tmp_path / "probe.py"
    path.write_text(source)
    assert set(declared([path])) == {"f.b", "f.c", "g.b", "h.b", "unset.b", "unset.c", "D.y",
                                     "D.z", "D.w", "N.p", "M.m.q"}
    assert unset([path], [path]) == {"f.b", "unset.b", "unset.c"}
