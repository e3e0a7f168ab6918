"""Every defaulted parameter and field in the package has a caller that sets
it, and every top-level function and class has a caller that names it.

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

A top-level function or class of ``src/exobench``, or an UPPER_CASE name
assigned at its top level (a module constant), counts as named when a name
or attribute of its name is loaded in ``src/`` or ``bench/`` outside its
own definition. A function or class that only tests name is a test
reference, and belongs in ``tests/reference.py``; a constant that nothing
reads states a rule that nothing keeps.

A field of a dataclass or NamedTuple in ``src/exobench`` counts as read when
an attribute load of its name, or a string constant equal to it (a key of a
``getattr`` loop), appears in ``src/`` or ``bench/``. A field that nothing
reads is stored for no one. Fields are matched by name alone, so a read of
another attribute of the same name can hide an unread field.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Values that only tests set, each with its reason.
ALLOWED = {
    "Episode.voluntary_nmm":
        "fault injection: the safety-abort tests drive the hand with a NaN or huge torque",
    "Episode.initial_motor":
        "fault injection: the engine tests start the motor away from the cable take-up",
    "MotorState.velocity_mm_s":
        "fault injection: the engine tests start the motor moving",
}

#: Top-level functions, classes and constants that nothing in ``src/`` or
#: ``bench/`` names, each with its reason.
UNNAMED_ALLOWED = {
    "trace_accuracy": "ROADMAP item 1 gives it a caller",
    "_HOLD_OPEN": "names the FSM code that settling's +1 makes of _EXTENDING",
    "_HOLD_CLOSED": "names the FSM code that settling's +1 makes of _RELEASING",
}


#: Fields that nothing in ``src/`` or ``bench/`` reads, each with its reason.
UNREAD_ALLOWED = {
    "TrajectoryColumns.effort": "ROADMAP item 1b writes it to trajectory-v2 rows",
    "TTestResult.df": "a test result: test_stats checks it",
    "WilcoxonResult.n_used": "a test result: test_stats checks it",
    "WilcoxonResult.exact": "a test result: test_stats checks it",
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


def _top_level(files):
    for path in files:
        for stmt in ast.parse(path.read_text(), str(path)).body:
            yield path, stmt


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function's or a class's,
    or each UPPER_CASE name it assigns, alone or in a tuple."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    names = [name for target in targets
             for name in (target.elts if isinstance(target, ast.Tuple) else [target])]
    return [name.id for name in names if isinstance(name, ast.Name) and name.id.isupper()]


def unnamed(package, callers) -> set[str]:
    """The top-level functions, classes and constants of ``package`` whose
    name no name or attribute load in ``callers`` uses outside their own
    definition."""
    users: dict[str, set[tuple[Path, int]]] = {}
    for path, stmt in _top_level(callers):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                users.setdefault(node.id, set()).add((path, stmt.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                users.setdefault(node.attr, set()).add((path, stmt.lineno))
    return {
        name for path, stmt in _top_level(package) for name in _defined(stmt)
        if not users.get(name, set()) - {(path, stmt.lineno)}
    }


def test_every_definition_has_a_caller():
    package = sorted((ROOT / "src" / "exobench").rglob("*.py"))
    callers = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    assert unnamed(package, callers) == set(UNNAMED_ALLOWED)


def test_the_name_scan_skips_only_the_own_definition(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('''
def used(): ...
def recursive(n):
    return recursive(n - 1)
def unused(): ...
def by_attribute(): ...
class Annotated: ...
class Alone:
    def make(self) -> "Alone":
        return Alone()

x: Annotated = used()
READ = 1
UNREAD, _PAIRED = 2, READ
STORED: int = 3
STORED = 4
BY_ATTRIBUTE = 5
lower = 6
''')
    caller = tmp_path / "caller.py"
    caller.write_text("import m\nm.by_attribute()\nprint(m.BY_ATTRIBUTE)\nm.STORED = 7\n")
    assert unnamed([module], [module, caller]) == {
        "recursive", "unused", "Alone", "UNREAD", "_PAIRED", "STORED"}
    assert unnamed([module], [module]) == {
        "recursive", "unused", "Alone", "by_attribute", "UNREAD", "_PAIRED", "STORED", "BY_ATTRIBUTE"}


def record_fields(files) -> dict[str, str]:
    """Each field of a dataclass or NamedTuple: its ``Class.name`` label and name."""
    found = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and _is_record_class(node):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        found[f"{node.name}.{stmt.target.id}"] = stmt.target.id
    return found


def unread(package, readers) -> set[str]:
    """The fields declared in ``package`` whose name no attribute load or
    string constant in ``readers`` uses, of classes that no ``fields(Class)``
    call in ``readers`` walks."""
    names, walked = set(), set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "fields"
                  and node.args and isinstance(node.args[0], ast.Name)):
                walked.add(node.args[0].id)
    return {label for label, name in record_fields(package).items()
            if name not in names and label.partition(".")[0] not in walked}


def test_every_field_has_a_reader():
    package = sorted((ROOT / "src" / "exobench").rglob("*.py"))
    readers = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    assert unread(package, readers) == set(UNREAD_ALLOWED)


def test_the_read_scan_sees_loads_and_string_keys(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text('''
from dataclasses import dataclass
from typing import NamedTuple

@dataclass
class D:
    loaded: int
    keyed: int
    stored: int
    unread: int = 0

class N(NamedTuple):
    p: int

class Plain:
    q: int

d = D(1, 2, 3)
d.stored = d.loaded
getattr(d, "keyed")
''')
    assert set(record_fields([path])) == {"D.loaded", "D.keyed", "D.stored", "D.unread", "N.p"}
    assert unread([path], [path]) == {"D.stored", "D.unread", "N.p"}


def test_the_read_scan_sees_a_walk_over_a_records_fields(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text('''
from dataclasses import dataclass, fields

@dataclass
class Walked:
    a: int
    b: int

@dataclass
class Other:
    c: int

print([f.name for f in fields(Walked)])
''')
    assert unread([path], [path]) == {"Other.c"}
