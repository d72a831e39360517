"""The reachability census (docs/CENSUS.md) stays true.

(a) The coin path imports only the coin path: in a fresh interpreter,
``import repro.core`` and ``import repro.protocols.async_coin`` load
nothing but class-(i) modules.  (b) Nothing lives on its own unit
tests: every ``src/repro`` module is imported by something other than
``tests/test_<its name>.py`` and a re-exporting package ``__init__``.
Both checks fail on the commit before the census (79 modules loaded,
``obs`` / ``analysis`` / ``apps`` among them; ``core/sequence.py``,
``protocols/vss_complaints.py`` and ``analysis/report.py`` test-only).
(c) There is one run path (the "Duplicate paths" table): two runtimes,
constructed only by ``repro.net`` and ``protocols/context.py``; one
player harness; one per-message fault decision.  Each of those checks
fails on d37430e, the commit before the paths were folded.
(d) There is one path from a recorded run to an answer: one constructor
of a ``CausalGraph``, one module that spells the expose tag, and no name
exported by ``repro.obs`` that no entry point reaches.  Each fails on
12b941c, the commit before that fold.  (e) Wait records and stalls are
views of the flight log: the liveness module subscribes to nothing, and
the progress topic, the pool gauge and its channel labels are gone
(fails on abe7edc, where two live subscribers recorded them).  (f)
Nothing publishes: runtimes, the fault plane and the coin source call
their recorders directly, and no event bus is left under ``src/`` or
``examples/`` (fails on ee3aec8, where ``repro.obs.bus`` carried nine
topics).
"""

import ast
import importlib
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CENSUS = ROOT / "docs" / "CENSUS.md"

#: | `repro.x.y` | i / ii | ...
ROW = re.compile(r"^\| `(repro[\w.]*)` \| (i{1,3}) \|", re.MULTILINE)


def census_classes():
    return dict(ROW.findall(CENSUS.read_text()))


def module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES = {module_name(path): path for path in SRC.rglob("*.py")}


def loaded_by(statement: str):
    """``repro`` modules in ``sys.modules`` after ``statement`` runs dark."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); {statement}; "
            "print(*sorted(m for m in sys.modules "
            "if m == 'repro' or m.startswith('repro.')))")
    return subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True,
    ).stdout.split()


def test_census_lists_every_module_and_no_class_iii():
    classes = census_classes()
    assert set(classes) == set(MODULES)
    assert "iii" not in classes.values()


@pytest.mark.parametrize("statement", [
    "import repro.core", "import repro.protocols.async_coin",
], ids=["core", "async_coin"])
def test_dark_import_loads_only_the_coin_path(statement):
    classes = census_classes()
    loaded = loaded_by(statement)
    assert [m for m in loaded if classes.get(m) != "i"] == []
    assert len(loaded) <= 45
    assert {m for m in loaded if m.startswith("repro.obs.")} <= {
        "repro.obs.spans", "repro.obs.phases",
    }
    for package in ("analysis", "apps", "baselines", "campaign", "cli"):
        prefix = f"repro.{package}"
        assert not [m for m in loaded if m == prefix or m.startswith(prefix + ".")]


def test_class_ii_modules_name_their_evidence():
    for module, cls in census_classes().items():
        if cls == "ii" and not MODULES[module].name == "__init__.py":
            docstring = ast.get_docstring(ast.parse(MODULES[module].read_text()))
            assert "docs/CENSUS.md" in docstring, module


def imported_modules(path: pathlib.Path, importer: str = ""):
    """The ``src/repro`` modules ``path`` imports.

    ``from package import name`` resolves to the submodule that defines
    ``name`` — through the package's own imports or its lazy table.  A
    package ``__init__`` that imports a name only to re-export it (never
    uses it) does not count as an importer.
    """
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    package = importer if path.name == "__init__.py" else importer.rpartition(".")[0]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(parent + ([base] if base else []))
            for alias in node.names:
                if path.name == "__init__.py" and (alias.asname or alias.name) not in used:
                    continue
                found.add(resolve(base, alias.name))
    # importing a submodule imports the packages above it
    found |= {name.rsplit(".", depth)[0] for name in found
              for depth in range(1, name.count(".") + 1)}
    return {module for module in found if module in MODULES}


def resolve(base: str, name: str) -> str:
    if f"{base}.{name}" in MODULES or base not in MODULES:
        return f"{base}.{name}"
    if MODULES[base].name != "__init__.py":
        return base
    lazy = getattr(importlib.import_module(base), "_LAZY", {})
    if name in lazy:
        return f"{base}.{lazy[name]}"
    for node in ast.walk(ast.parse(MODULES[base].read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if any((alias.asname or alias.name) == name for alias in node.names):
                return resolve(node.module, name)
    return base


def test_no_module_lives_on_its_own_unit_tests():
    importers = {module: set() for module in MODULES}
    for module, path in MODULES.items():
        for target in imported_modules(path, module):
            if target != module:
                importers[target].add(path)
    for directory in ("tests", "benchmarks", "examples", "bench"):
        for path in (ROOT / directory).rglob("*.py"):
            for target in imported_modules(path):
                importers[target].add(path)
    orphans = []
    for module, paths in importers.items():
        own_test = ROOT / "tests" / f"test_{module.rpartition('.')[2]}.py"
        if module != "repro.__main__" and not paths - {own_test}:
            orphans.append(module)
    assert orphans == []


# -- one run path ------------------------------------------------------------

def calls(tree, names):
    """Call nodes whose callee is one of ``names`` (bare or dotted)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = node.func
            name = getattr(callee, "id", None) or getattr(callee, "attr", None)
            if name in names:
                yield node


def test_only_net_and_the_context_construct_a_runtime():
    allowed = {"repro.protocols.context"}
    builders = sorted(
        module for module, path in MODULES.items()
        if not module.startswith("repro.net") and module not in allowed
        and any(calls(ast.parse(path.read_text()),
                      {"SynchronousNetwork", "AsyncRuntime"}))
    )
    assert builders == []


def test_runtime_base_has_exactly_the_two_loops():
    subclasses = sorted(
        f"{module}.{node.name}"
        for module, path in MODULES.items()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(getattr(base, "id", getattr(base, "attr", None)) == "RuntimeBase"
                for base in node.bases)
    )
    assert subclasses == [
        "repro.net.async_runtime.AsyncRuntime",
        "repro.net.simulator.SynchronousNetwork",
    ]


def test_one_function_waits_for_the_honest_players():
    """``run(programs, wait_for=honest)`` is written once: the harness."""
    sites = []
    for module, path in MODULES.items():
        if not module.startswith(
            ("repro.protocols", "repro.core", "repro.baselines")
        ):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                keyword.arg == "wait_for"
                for call in ast.walk(node) if isinstance(call, ast.Call)
                for keyword in call.keywords
            ):
                sites.append(f"{module}.{node.name}")
    assert sites == ["repro.protocols.context.run_players"]


def test_the_async_loop_asks_the_fault_plane_to_decide():
    text = MODULES["repro.net.async_runtime"].read_text()
    assert "faults.rules" not in text
    assert "faults._publish" not in text


# -- one path from a recorded run to an answer -------------------------------

def test_the_flight_log_is_the_only_source_of_a_causal_graph():
    builders = sorted(
        module for module, path in MODULES.items()
        if any(calls(ast.parse(path.read_text()), {"CausalGraph"}))
    )
    assert builders == ["repro.obs.causality"]
    constructors = [
        node.name
        for node in ast.walk(ast.parse(MODULES["repro.obs.causality"].read_text()))
        if isinstance(node, ast.FunctionDef)
        and any(calls(node, {"CausalGraph"}))
    ]
    assert constructors == ["graph_from_log"]


def test_nothing_publishes():
    bus = re.compile(
        r"EventBus|\.publish\(|\.subscribe\(|has_subscribers|repro\.obs\.bus"
    )
    paths = [*SRC.rglob("*.py"), *(ROOT / "examples").glob("*.py")]
    assert [str(path.relative_to(ROOT)) for path in paths
            if bus.search(path.read_text())] == []
    assert "repro.obs.bus" not in MODULES


def test_the_flight_log_is_the_only_source_of_wait_records():
    liveness = ast.parse(MODULES["repro.obs.liveness"].read_text())
    assert not any(calls(liveness, {"subscribe"}))
    for module, path in MODULES.items():
        named = identifiers(ast.parse(path.read_text()))
        assert not named & {"GUARD_PROGRESS", "POOL", "expansion_channels"}, (
            module
        )


def test_one_module_spells_the_expose_tag():
    spellers = sorted(
        module for module, path in MODULES.items()
        if re.search(r"""["']expose/""", path.read_text())
    )
    assert spellers == ["repro.protocols.coin_expose"]


def identifiers(node):
    """Every name ``node`` mentions: variables, attributes, imports."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rpartition(".")[2] for alias in child.names)
    return found


def test_every_obs_export_is_reached_from_an_entry_point():
    """Name-level reachability: from the CLI, the examples, the claims
    table and ``bench/``, through every top-level definition under
    ``src/repro`` a reached name names (and the import-time statements
    of its module).  Coarse — a shared method name over-reaches — but an
    export nothing mentions outside its own tests cannot pass."""
    import repro.obs

    mentions = {}  # top-level name -> what its definition mentions
    import_time = {}  # top-level name -> its module's other statements
    for path in MODULES.values():
        body = ast.parse(path.read_text()).body
        loose = set()
        names = []
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
                mentions.setdefault(node.name, set()).update(identifiers(node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                targets = [t.id for t in getattr(node, "targets", [])
                           if isinstance(t, ast.Name)]
                for name in targets:
                    mentions.setdefault(name, set()).update(identifiers(node))
                names.extend(targets)
                if not targets:
                    loose |= identifiers(node)
        for name in names:
            import_time.setdefault(name, set()).update(loose)
    entry_points = [
        MODULES["repro.cli"], ROOT / "benchmarks" / "claims.py",
        *(ROOT / "examples").glob("*.py"),
        *(p for p in (ROOT / "bench").glob("*.py")
          if not p.name.startswith("test_")),
    ]
    reached = set().union(
        *(identifiers(ast.parse(path.read_text())) for path in entry_points)
    )
    frontier = [name for name in reached if name in mentions]
    expanded = set()
    while frontier:
        name = frontier.pop()
        if name in expanded:
            continue
        expanded.add(name)
        new = (mentions[name] | import_time.get(name, set())) - reached
        reached |= new
        frontier.extend(new & mentions.keys())
    assert [name for name in repro.obs.__all__ if name not in reached] == []
    # the check can see a dead export: these were, on the parent
    assert not reached & {"profile_from_recorder", "diff_recordings",
                          "as_profile", "pivotal_what_if"}
