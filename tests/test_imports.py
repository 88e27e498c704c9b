"""Every name a module under src/ imports is used in that module, and every
import sits at module level but for a few pinned ones.

The package's ``__init__`` is left out of the first check: re-exporting what
it imports is its job.  The imports inside a function are pinned with their
reasons (``FUNCTION_IMPORTS``): the cycle-breaker in
``warp_profiles.parse_warp_spec`` (``profile_io`` imports ``warp_profiles``)
and, by design, the three uses of scipy, so that only the commands that run
a ``quad`` or a PCHIP load it.  No module imports ``warnings``: a warning
silenced inside the package would get round the test suite's
``filterwarnings = ["error", ...]``.  The package steps every ODE and finds
every root with its own ``dop853``, and what each module takes from scipy
is pinned name by name (``SCIPY_IMPORTS``): a stepper, a root finder or any
other new scipy dependency fails until the map names it.  A fresh
interpreter that imports the package and runs ``--help``, a usage error, a
trace and a one-case verify loads no scipy module at all.  The warp
callables take arrays, and the functions that still call one once per
element, or hand one to ``straightline.call`` for a generated right-hand
side, are pinned the same way (``SCALAR_WARP_CALLERS``).  Only ``dop853`` generates
code: ``dop853.compiled`` compiles its generated runs from the tableau and the
right-hand sides that ``geodesic_flow`` traces, and no other module calls
``exec``, ``eval`` or ``compile``.  No function takes a parameter ``xp``:
``straightline``'s functions pick math or numpy by their operand's type,
so a formula takes its operands alone.  Every defaulted parameter of a
public function under src/, and of a public class's constructor (its
``__init__``, or a dataclass's or NamedTuple's fields), is passed by some
call in src/ or perfbench/: a default that nothing but the tests overrides
is a constant.  ``RunConfig`` is exempt (``SET_BY_NAME``).  No linter is
needed; the checks walk each module's syntax tree."""
import ast
import os
import pathlib
import subprocess
import sys
from collections import defaultdict

import pytest

import singular_geodesics
from singular_geodesics import cross_sections, dop853, geodesic_flow

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "singular_geodesics"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# (module, function) pairs allowed an import in their body, with the reason
FUNCTION_IMPORTS = {
    ("warp_profiles.py", "parse_warp_spec"): "profile_io imports warp_profiles",
    ("warp_profiles.py", "compute_Cf_detailed"): "quad: only a quadrature loads scipy",
    ("experiments.py", "closed_form_winding_length"): "quad: only a quadrature loads scipy",
    ("profile_io.py", "load_profile_csv"): "PchipInterpolator: only a profile loads scipy",
}


def function_imports(source: str) -> list:
    tree = ast.parse(source)
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{func.name} (line {node.lineno})" for node in ast.walk(func)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    found = function_imports(path.read_text())
    allowed = {f for module, f in FUNCTION_IMPORTS if module == path.name}
    assert [f for f in found if f.split(" ")[0] not in allowed] == []


def test_detects_an_import_inside_a_function():
    source = "import math\n\ndef f():\n    def g():\n        from os import sep\n    return g\n"
    assert function_imports(source) == ["f (line 5)", "g (line 5)"]


def test_detects_an_unused_name():
    source = "from typing import List, Optional\nimport numpy as np\nx: Optional[int] = np.pi\n"
    assert unused_imports(source) == ["List (line 1)"]


def imported_modules(source: str) -> set:
    tree = ast.parse(source)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_warning_suppression(path):
    assert "warnings" not in imported_modules(path.read_text())


def test_detects_a_warnings_import():
    source = "from warnings import catch_warnings\nimport numpy.linalg\nfrom . import errors\n"
    assert imported_modules(source) == {"warnings", "numpy"}


# every scipy name each module under src/ imports; a module left out imports
# none
SCIPY_IMPORTS = {
    "experiments.py": {"scipy.integrate.quad"},
    "profile_io.py": {"scipy.interpolate.PchipInterpolator"},
    "warp_profiles.py": {"scipy.integrate.quad"},
}


def scipy_imports(source: str) -> set:
    """The dotted scipy names a module imports: each name taken from a scipy
    module, and each scipy module imported itself."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "scipy")
        elif (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module
              and node.module.split(".")[0] == "scipy"):
            found.update(f"{node.module}.{a.name}" for a in node.names)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_stepper(path):
    assert scipy_imports(path.read_text()) == SCIPY_IMPORTS.get(path.name, set())


def test_one_stepper_for_the_package():
    assert geodesic_flow.solve_ivp is dop853.solve_ivp
    assert cross_sections.solve_ivp is dop853.solve_ivp


# run in a fresh interpreter: each command in turn through cli.main, then
# its exit code and the scipy modules loaded so far, one line per command
_LOADED_SCIPY = """
import contextlib, io, sys
import singular_geodesics
from singular_geodesics import cli

def loaded(label, code):
    print(label, code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))

loaded("import", 0)
for label, argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's --help and usage errors
            code = exc.code
    loaded(label, code)
"""


def test_only_a_quadrature_loads_scipy(tmp_path):
    commands = [("help", ["--help"]), ("usage", ["trace", "--delta"]),
                ("trace", ["trace", "--warp", "power:2", "--outdir", str(tmp_path)]),
                ("verify", ["verify", "--bounds-cases", "1", "--compare-cases", "1"]),
                ("cf", ["cf", "--warp", "power:2"])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(singular_geodesics.__file__).parents[1])]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", _LOADED_SCIPY.format(commands=commands)],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    lines = [line.split(" ", 2) for line in run.stdout.splitlines()]
    assert [(label, code) for label, code, _ in lines] == [
        ("import", "0"), ("help", "0"), ("usage", "2"), ("trace", "0"), ("verify", "0"),
        ("cf", "0")]
    assert [scipy for _, _, scipy in lines[:-1]] == ["[]"] * 5
    # the gate sees scipy once a command loads it: cf's quadrature
    assert "'scipy.integrate'" in lines[-1][2]


def test_detects_a_scipy_stepper_import():
    source = ("from scipy.integrate import quad, solve_ivp\nimport scipy.integrate\n"
              "from scipy.integrate._ivp import rk\nfrom scipy import integrate, optimize\n"
              "from scipy.optimize import brentq\nimport numpy.linalg\nfrom . import dop853\n")
    assert scipy_imports(source) == {
        "scipy.integrate.quad", "scipy.integrate.solve_ivp", "scipy.integrate",
        "scipy.integrate._ivp.rk", "scipy.optimize",
        "scipy.optimize.brentq"}


WARP_CALLABLES = {"f", "f_prime", "log_f", "d_log_f", "F", "F_prime"}
_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

# every function under src/ that calls a warp callable once per element: the
# length oracle's quad integrand, the frakF ladder and the stepper's
# right-hand sides (while they trace their slopes, or from their generated
# code for a warp that is not a formula); a module left out has none.
# Everything else evaluates warps with one array call per sample array.
SCALAR_WARP_CALLERS = {
    "experiments.py": {"_length_integrand"},
    "geodesic_flow.py": {"_reduced_rhs", "_full_rhs"},
    "warp_profiles.py": {"estimate_frakF"},
}


def per_element_warp_calls(source: str) -> set:
    """The module-level functions (``Class.method`` for a method) that call
    a warp callable by attribute in the body of a loop or a comprehension or
    in a nested function (a quadrature integrand, a right-hand side), or
    that pass one by attribute to ``call`` (``straightline.call(wf.f, r)``,
    which the generated code may call per evaluation).  A loop's iterable is
    evaluated once, so a warp call there is an array call."""
    found, outer = set(), {}

    def visit(node, owner, per_element):
        # a loop's iterable takes the flag from outside the loop
        per_element = outer.pop(id(node), per_element)
        if isinstance(node, ast.ClassDef):
            owner, per_element = node.name + ".", False
        elif isinstance(node, _FUNCTIONS):
            if owner is None or owner.endswith("."):
                owner = (owner or "") + getattr(node, "name", "<lambda>")
            else:
                per_element = True
        elif isinstance(node, ast.Call) and (
                (per_element and isinstance(node.func, ast.Attribute)
                 and node.func.attr in WARP_CALLABLES)
                or (getattr(node.func, "attr", getattr(node.func, "id", None)) == "call"
                    and any(isinstance(arg, ast.Attribute) and arg.attr in WARP_CALLABLES
                            for arg in node.args))):
            found.add(owner)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            outer[id(node.iter)] = per_element
        elif isinstance(node, _LOOPS[3:]):  # a comprehension
            outer[id(node.generators[0].iter)] = per_element
        for child in ast.iter_child_nodes(node):
            visit(child, owner, per_element or isinstance(node, _LOOPS))
    visit(ast.parse(source), None, False)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_warp_callables_are_called_per_element_only_where_pinned(path):
    assert per_element_warp_calls(path.read_text()) == SCALAR_WARP_CALLERS.get(path.name, set())


def test_detects_a_per_element_warp_call():
    source = ("def a(wf, xs):\n    return [wf.f(x) for x in xs]\n"
              "def b(wf, xs):\n    for x in xs:\n        pass\n    return wf.F(xs)\n"
              "def c(wf):\n    def g(s):\n        return wf.log_f(s)\n    return g\n"
              "def d(wf, r):\n    return straightline.call(wf.f, r)\n"
              "def e(wf, r):\n    return straightline.call(len, wf.f(r))\n"
              "class T:\n    def m(self, r):\n        while r:\n            r = self.wf.F(r)\n"
              "    def n(self, r):\n        return [x for x in self.wf.f_prime(r)]\n")
    assert per_element_warp_calls(source) == {"a", "c", "d", "T.m"}


def code_generation_calls(source: str) -> list:
    """The builtins ``exec``, ``eval`` and ``compile`` that a module calls,
    with their lines (a method such as ``re.compile`` is not one of them)."""
    return [f"{node.func.id} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("exec", "eval", "compile")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_dop853_generates_code(path):
    found = code_generation_calls(path.read_text())
    if path.name == "dop853.py":
        assert sorted(f.split(" ")[0] for f in found) == ["compile", "exec"]
    else:
        assert found == []


def test_detects_code_generation():
    source = "import re\nre.compile('x')\nexec(compile('y = 1', 'f', 'exec'))\neval('2')\n"
    assert sorted(code_generation_calls(source)) == ["compile (line 3)", "eval (line 4)",
                                                     "exec (line 3)"]


def xp_parameters(source: str) -> list:
    """The functions and lambdas with a parameter named ``xp``, with their
    lines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _FUNCTIONS):
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            if "xp" in names:
                found.append((node.lineno, getattr(node, "name", "<lambda>")))
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_takes_a_module_xp(path):
    assert xp_parameters(path.read_text()) == []


def test_detects_an_xp_parameter():
    source = ("def f(r, xp):\n    return xp.sin(r)\n"
              "g = lambda x, *, xp=None: x\n"
              "def h(x, *xp):\n    return x\n"
              "def k(x, sin=None):\n    return x\n")
    assert xp_parameters(source) == ["f (line 1)", "<lambda> (line 3)", "h (line 4)"]


def _called_name(func: ast.expr):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _parameters(func: ast.FunctionDef, skip: int = 0):
    """(positional, defaulted) parameter names of ``func``, without its first
    ``skip`` positional ones (``self``)."""
    args = func.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] + [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional[skip:], defaulted


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple: its annotated fields are its parameters."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return (any(_called_name(d) == "dataclass" for d in decorators)
            or any(_called_name(b) == "NamedTuple" for b in cls.bases))


def _class_parameters(cls: ast.ClassDef):
    """(positional, defaulted) parameters of a call of the class ``cls``: its
    ``__init__``'s, or a record's fields; none for any other class."""
    init = next((n for n in cls.body if isinstance(n, ast.FunctionDef)
                 and n.name == "__init__"), None)
    if init is not None:
        return _parameters(init, skip=1)
    if not _is_record(cls):
        return [], []
    fields = [n for n in cls.body
              if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
    return [n.target.id for n in fields], [n.target.id for n in fields if n.value is not None]


def unset_defaults(modules: list, callers: list) -> list:
    """``name(parameter)`` for each defaulted parameter of a module-level
    public function, or of the constructor of a module-level public class
    (its ``__init__``, or a dataclass's or NamedTuple's defaulted fields), in
    the sources ``modules`` that no call in the sources ``callers`` passes,
    by keyword or by position.  A function that forwards its ``**kwargs`` to
    another passes the keywords it receives on; every function of a name
    forwards, so a test helper that shares a name with a forwarding function
    hides none of its forwarding."""
    signatures = {}
    for source in modules:
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                signatures[node.name] = _parameters(node)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                signatures[node.name] = _class_parameters(node)
    trees = [ast.parse(source) for source in callers]
    forwards = defaultdict(set)
    for func in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(func, ast.FunctionDef) and func.args.kwarg:
            for call in ast.walk(func):
                if isinstance(call, ast.Call) and any(
                        k.arg is None and getattr(k.value, "id", None) == func.args.kwarg.arg
                        for k in call.keywords):
                    forwards[func.name].add(_called_name(call.func))
    passed = defaultdict(set)
    for call in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(call, ast.Call):
            name = _called_name(call.func)
            keywords = {k.arg for k in call.keywords if k.arg}
            n_positional = sum(not isinstance(a, ast.Starred) for a in call.args)
            if name in signatures:
                passed[name] |= keywords | set(signatures[name][0][:n_positional])
            for target in forwards.get(name, ()):
                passed[target] |= keywords
    return sorted(f"{name}({p})" for name, (_, defaulted) in signatures.items()
                  for p in defaulted if p not in passed[name])


# classes whose defaulted fields are set by name, not by a call: the CLI
# sets each RunConfig field from its flag or config key with setattr
SET_BY_NAME = {"RunConfig"}


def test_every_default_is_passed_somewhere():
    callers = [p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py")]
    unset = unset_defaults([p.read_text() for p in SRC.glob("*.py")],
                           [p.read_text() for p in callers])
    assert [u for u in unset if u.split("(")[0] not in SET_BY_NAME] == []


def test_detects_a_default_no_call_passes():
    module = "def f(a, b=1, *, c=2, d=3):\n    pass\n\ndef g(**kw):\n    f(0, **kw)\n"
    # a same-named helper that forwards elsewhere keeps g's forwarding to f
    helper = "def g(**kw):\n    return h(**kw)\n"
    callers = [module, "import m\nm.f(0, 1)\nm.g(c=4)\n", helper]
    assert unset_defaults([module], callers) == ["f(d)"]
    # constructors: an __init__'s parameters after self, a record's fields
    classes = ("class A:\n    def __init__(self, a, b=1, c=2):\n        pass\n"
               "@dataclass(frozen=True)\nclass D:\n    x: int\n    y: int = 0\n"
               "    z: list = field()\n"
               "class N(NamedTuple):\n    p: int\n    q: int = 1\n"
               "class Plain:\n    k: int = 3\n"
               "class _Private:\n    def __init__(self, u=1):\n        pass\n")
    assert unset_defaults([classes], ["A(0, 1)\nD(1, z=[])\nN(1)\n"]) == ["A(c)", "D(y)", "N(q)"]
