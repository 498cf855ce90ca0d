"""Static checks on the package source: no module-level import goes unused,
every name in an ``__all__`` is bound in its module, every public name of
the package and every public method of a public class has a user in the
package or the benchmark, one place tells a bare coupling matrix from a
schedule, one pipeline detects the limit and reconciles, the CLI reads the
run's rows only to write them, one kernel entry steps every run, one check
computes the quotient and the input bound, the generators draw into the
support array, the schedule validates every coupling, one generator entry
hands back every coupling, and every private helper has a caller."""

import ast
import pathlib

import pytest

import cclab

SOURCES = sorted(pathlib.Path(cclab.__file__).parent.glob("*.py"))
BENCH = sorted((pathlib.Path(__file__).resolve().parents[1] / "bench").rglob("*.py"))

# Public names, and public methods as ``module.Class.method``, with no user
# yet, each with the ROADMAP item that adopts it.
AWAITING = {
    "ergodicity_coefficient": "item 4",
    "hajnal_diameter": "item 4",
    "is_cluster_scrambling": "item 4",
    "z_limits": "item 5",
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _bound(tree: ast.Module) -> set[str]:
    """Names the module binds at top level."""
    names = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_exported(tree))
    return sorted(
        f"line {line}: {name}" for name, line in _imported(tree).items() if name not in used
    )


def used_names(source: str) -> set[str]:
    """Names a module reads, bare, as an attribute or as a part of a dotted
    string such as ``"signals.SequenceInput.value"``, outside the top-level
    definition that binds them."""
    used = set()
    for node in ast.parse(source).body:
        names = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) and "." in n.value:
                parts = n.value.split(".")
                if all(part.isidentifier() for part in parts):
                    names.update(parts)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.discard(node.name)
        used |= names
    return used


def _sites(source: str, hit) -> list[str]:
    """Qualified names of the functions and classes whose own code holds a
    node that ``hit`` accepts, ``<module>`` for top level."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if hit(child):
                sites.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return sites


def _names(node, name: str) -> bool:
    """Whether ``node`` is ``name``, bare or as an attribute."""
    return (
        isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
    )


def isinstance_sites(source: str, name: str) -> list[str]:
    """The :func:`_sites` that call ``isinstance(x, <types naming name>)``."""
    return _sites(
        source,
        lambda n: isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "isinstance"
        and len(n.args) == 2
        and any(_names(t, name) for t in ast.walk(n.args[1])),
    )


def call_sites(source: str, name: str) -> list[str]:
    """The :func:`_sites` that call ``name``, bare or as an attribute."""
    return _sites(source, lambda n: isinstance(n, ast.Call) and _names(n.func, name))


def attribute_sites(source: str, name: str) -> list[str]:
    """The :func:`_sites` that read the attribute ``name``."""
    return _sites(source, lambda n: isinstance(n, ast.Attribute) and n.attr == name)


def public_methods(source: str) -> list[tuple[str, str]]:
    """``(Class.name, name)`` for every public method and property of the
    module's public classes."""
    return [
        (f"{node.name}.{item.name}", item.name)
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


def private_functions(source: str) -> list[str]:
    """Names of the module-level functions whose names start with ``_``."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_")
    ]


def unresolved_exports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = _bound(tree)
    return [name for name in _exported(tree) if name not in bound]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_exported_name_resolves(path):
    assert unresolved_exports(path.read_text(encoding="utf-8")) == []


def test_every_public_name_has_a_user_or_awaits_its_roadmap_item():
    """So does every public method and property of a public class: one
    that only tests call is dead code in the package."""
    users = [p for p in SOURCES if p.name != "__init__.py"] + BENCH
    used = set().union(*(used_names(p.read_text(encoding="utf-8")) for p in users))
    methods = {
        f"{p.stem}.{qualified}": name
        for p in SOURCES
        for qualified, name in public_methods(p.read_text(encoding="utf-8"))
    }
    assert sorted(set(cclab.__all__) - used - set(AWAITING)) == []
    assert sorted(q for q, name in methods.items() if name not in used and q not in AWAITING) == []
    # an adopted or deleted name leaves the list
    assert sorted(key for key in AWAITING if key.rsplit(".", 1)[-1] in used) == []
    assert sorted(set(AWAITING) - set(cclab.__all__) - set(methods)) == []


def test_every_private_helper_has_a_caller():
    """A module-level private function is called, or read as a value (a
    schema table entry, say), somewhere in the package outside its own
    definition; one that is not is dead code."""
    sources = [p.read_text(encoding="utf-8") for p in SOURCES]
    used = set().union(*(used_names(source) for source in sources))
    defined = {
        f"{p.stem}.{name}": name
        for p, source in zip(SOURCES, sources)
        for name in private_functions(source)
    }
    assert sorted(q for q, name in defined.items() if name not in used) == []


def test_only_the_system_constructor_tells_a_matrix_from_a_schedule():
    """A fixed coupling is the one-matrix schedule from the config to the
    kernel: ``System`` wraps a bare matrix once, and every other reader
    takes ``coupling.matrices``."""
    sites = [
        f"{p.stem}.{site}"
        for p in SOURCES
        for site in isinstance_sites(p.read_text(encoding="utf-8"), "MatrixSchedule")
    ]
    assert sites == ["dynamics.System.__post_init__"]


@pytest.mark.parametrize("name", ["diameter_series", "detect_periodic_limit", "reconcile"])
def test_one_pipeline_detects_the_limit_and_reconciles(name):
    """A config run and an ensemble instance are judged by the same code:
    the pipeline ``verifier.run`` is the only caller of each step, and its
    record carries the diameter series to every other reader."""
    sites = [
        f"{p.stem}.{site}"
        for p in SOURCES
        for site in call_sites(p.read_text(encoding="utf-8"), name)
    ]
    assert sites == ["verifier.run.outcome"]


def test_the_cli_reads_rows_only_to_write_them():
    """The CLI takes every number from the run record; the states
    themselves, ``.traj``, are read only where ``trajectory.csv`` is
    written."""
    source = (pathlib.Path(cclab.__file__).parent / "cli.py").read_text(encoding="utf-8")
    writers = call_sites(source, "write_trajectory_csv")
    assert writers
    assert set(attribute_sites(source, "traj")) <= set(writers)


@pytest.mark.parametrize(
    "name, callers",
    [
        ("_advance", ["dynamics.simulate_batch"]),
        ("_drive", ["dynamics.simulate_batch"]),
        ("_addressable", ["dynamics.simulate_batch"]),
    ],
)
def test_one_kernel_entry_steps_every_run(name, callers):
    """A config run, an ensemble batch, a learning run and the reduced
    recursion (the quotient ``System`` on singleton clusters) all step
    through ``dynamics.simulate_batch``, the one caller of the kernel."""
    sites = [
        f"{p.stem}.{site}"
        for p in SOURCES
        for site in call_sites(p.read_text(encoding="utf-8"), name)
    ]
    assert sites == callers


@pytest.mark.parametrize(
    "name, callers",
    [
        ("schedule_quotient", ["generate._matrix_on_graph", "verifier.check_switching"]),
        ("partial_sum_bound", ["signals.input_bound"]),
    ],
)
def test_one_check_computes_the_quotient_and_the_input_bound(name, callers):
    """The hypothesis check computes a run's quotient and input peaks once,
    and the a-priori bound reads them off its report; the generator's own
    quotient check on a candidate matrix is the other caller."""
    sites = [
        f"{p.stem}.{site}"
        for p in SOURCES
        for site in call_sites(p.read_text(encoding="utf-8"), name)
    ]
    assert sites == callers


def test_the_generators_draw_into_the_support_array():
    """The generators set each link in the boolean support as they draw
    it; only the bundled examples, written as link lists, go through
    ``graph.support``."""
    source = (pathlib.Path(cclab.__file__).parent / "generate.py").read_text(encoding="utf-8")
    sites = sorted(set(call_sites(source, "support")))
    assert sites == ["example_graph_static", "example_graphs_switching"]


def test_the_schedule_validates_every_coupling():
    """``MatrixSchedule`` validates each coupling matrix, once. The other
    callers of ``validate`` check a K-by-K quotient or a library argument;
    the generator's matrix builder hands its matrix over as built."""
    sites = sorted(
        f"{p.stem}.{site}"
        for p in SOURCES
        for site in call_sites(p.read_text(encoding="utf-8"), "validate")
    )
    assert sites == [
        "dynamics.z_limits",
        "generate.GeneratorSpec.__post_init__",
        "generate._draw_quotient",
        "stochastic.MatrixSchedule.__post_init__",
        "stochastic.power_limit",
        "stochastic.schedule_quotient",
    ]


@pytest.mark.parametrize("name", ["gen_common_influence_matrix", "gen_graph_with_cluster_trees"])
def test_one_generator_entry_hands_back_every_coupling(name):
    """Fixed and switching couplings alike come from
    ``gen_switching_schedule``, as a schedule; its ``m = 1`` branch is the
    one caller of the fixed pair."""
    sites = [
        f"{p.stem}.{site}"
        for p in SOURCES
        for site in call_sites(p.read_text(encoding="utf-8"), name)
    ]
    assert sites == ["generate.gen_switching_schedule"]


def test_the_checks_catch_what_they_look_for():
    source = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "def f(x: Optional[int]): return os.path.join(x)\n"
        "__all__ = ['f', 'Sequence', 'g']\n"
    )
    assert unused_imports(source) == ["line 2: itertools"]
    assert unresolved_exports(source) == ["g"]
    used = used_names(
        "def f(n): return f(n - 1) + g.h\n"
        "class C:\n    x = C\n"
        "SKIP = ('signals.SequenceInput.value', 'not a path')\n"
    )
    assert {"g", "h", "signals", "SequenceInput", "value"} <= used
    assert not {"f", "C", "path"} & used
    assert private_functions("def _f(): pass\nclass _C: pass\n_g = 1\ndef h(): pass\n") == ["_f"]
    methods = public_methods(
        "class C:\n"
        "    x = 1\n"
        "    def f(self): pass\n"
        "    @property\n"
        "    def p(self): pass\n"
        "    def _g(self): pass\n"
        "    def __len__(self): pass\n"
        "class _D:\n"
        "    def h(self): pass\n"
        "def k(): pass\n"
    )
    assert methods == [("C.f", "f"), ("C.p", "p")]
    sites = isinstance_sites(
        "isinstance(a, S)\n"
        "class C:\n"
        "    def f(self, a):\n"
        "        return [isinstance(a, (int, m.S)) for _ in a], isinstance(a, T)\n"
        "def g(a): return isinstance(a, str) or h(isinstance(a, S))\n",
        "S",
    )
    assert sites == ["<module>", "C.f", "g"]
    calls = call_sites(
        "def f(a): return g(a)\n"
        "def h(a):\n"
        "    def inner(b): return m.g(b)\n"
        "    return g, inner(a)\n",
        "g",
    )
    assert calls == ["f", "h.inner"]
    reads = attribute_sites("def f(a): return a.traj\ndef g(traj): return traj, b.c\n", "traj")
    assert reads == ["f"]
    quotients = call_sites(
        "def check(s): return m.schedule_quotient(s)\n"
        "def bound(s, report): return report.schedule_quotient, schedule_quotient\n",
        "schedule_quotient",
    )
    assert quotients == ["check"]
    supports = call_sites(
        "def gen(s): return _support(s, t)\n"
        "def example(): return g.support(9, ())\n",
        "support",
    )
    assert supports == ["example"]
    validations = call_sites(
        "class S:\n"
        "    def __post_init__(self): self.m = tuple(st.validate(m) for m in self.m)\n"
        "def build(a): return a / a.sum(axis=1)[:, None], validate\n",
        "validate",
    )
    assert validations == ["S.__post_init__"]
    entries = call_sites(
        "def gen_switching_schedule(spec, m):\n"
        "    if m == 1: return S((matrix(spec, gen_graph_with_cluster_trees(spec)),))\n"
        "def build(spec): return gen_switching_schedule(spec, m=1)\n",
        "gen_graph_with_cluster_trees",
    )
    assert entries == ["gen_switching_schedule"]
