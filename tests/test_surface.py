"""The package's public surface: no dead imports, honest __all__ lists, and
a pinned set of top-level names.

The import and __all__ checks parse src/rfloc/*.py with the standard
library's ast module, so they need no linter.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import rfloc
from rfloc import Scenario, solver

SOURCES = sorted(Path(rfloc.__file__).parent.glob("*.py"))

# A name stays public only if the CLI, a grid oracle, the acceptance module
# or a documented paper step calls it. Adding one is a change to review.
PUBLIC = {
    "__version__", "errors",
    "Point", "distance",
    "DopplerReading", "DopplerRange", "doppler_shift", "doppler_distance",
    "Scenario", "ArrivalSet", "simulate_arrivals", "perturb_arrivals",
    "SolverOptions", "SolveResult", "finite_difference_jacobian", "grid_search",
    "RangeDifferenceSet", "arrival_deltas", "hyperbolic_residuals", "hyperbolic_jacobian",
    "hyperbolic_objective", "locate_emitter",
    "TrilaterationProblem", "trilateration_residuals", "trilateration_jacobian",
    "trilateration_objective", "trilaterate", "trilaterate_lsq", "team_relative_position",
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
    return names


def _defined(tree: ast.Module) -> set[str]:
    """Names a module defines itself: functions, classes and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_all(tree))
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_lists_only_defined_names(path):
    # A module lists what it defines; only the package __init__ re-exports.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    known = _defined(tree)
    if path.name == "__init__.py":
        known |= set(_imported(tree))
    missing = [name for name in _all(tree) if name not in known]
    assert not missing, f"{path.name}: __all__ names it does not define: {missing}"


def test_public_surface_is_pinned():
    assert len(rfloc.__all__) == len(set(rfloc.__all__))
    assert set(rfloc.__all__) == PUBLIC
    for name in rfloc.__all__:
        getattr(rfloc, name)


def _source(name: str) -> str:
    return (Path(rfloc.__file__).parent / name).read_text(encoding="utf-8")


def test_cli_reaches_the_solvers_only_through_their_row_drivers():
    # A sweep's TDOA rows come from tdoa._fixes and its trilateration rows
    # from trilat._batch; the CLI never rebuilds a row from their parts.
    tree = ast.parse(_source("cli.py"))
    private = {(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.module in ("tdoa", "trilat")
               for alias in node.names if alias.name.startswith("_")}
    assert private == {("tdoa", "_fixes"), ("tdoa", "_range_differences"),
                       ("trilat", "_batch")}
    for name in ("_plane_batch", "_triangle", "_fix", "_inconsistent", "_PlaneRoots"):
        assert not re.search(rf"\b{name}\b", _source("cli.py")), name


def _callers(path: Path, names: tuple[str, ...]) -> set[tuple[str, str]]:
    """(top-level definition, callee) for every call of names in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {(getattr(top, "name", "<module>"), call.func.id) for top in tree.body
            for call in ast.walk(top) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id in names}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_fixes_drives_the_plane_batch(path):
    # The closed-form TDOA batch and its collinearity check have one caller.
    expected = {("_fixes", "_plane_batch"), ("_fixes", "_triangle")}
    assert _callers(path, ("_plane_batch", "_triangle")) == (
        expected if path.name == "tdoa.py" else set())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_batch_drives_the_closed_form_trilateration(path):
    expected = {("_batch", "_closed_form")} if path.name == "trilat.py" else set()
    assert _callers(path, ("_closed_form",)) == expected


def test_cli_picks_its_row_driver_in_one_function():
    cli = Path(rfloc.__file__).parent / "cli.py"
    assert _callers(cli, ("_fixes", "_batch")) == {("_rows", "_fixes"), ("_rows", "_batch")}


def test_cli_assembles_a_trial_in_one_function():
    # Single runs, sweep rows and the per-trial reference take a trial's
    # solves, and a pipeline's team, from _solves alone.
    cli = Path(rfloc.__file__).parent / "cli.py"
    assert _callers(cli, ("_team",)) == {("_solves", "_team")}
    assert _callers(cli, ("fix",)) == {("_solves", "fix")}
    assert _callers(cli, ("_solves",)) == {("_single_run_entries", "_solves"),
                                           ("_mc_trial", "_solves"), ("_trials", "_solves")}


def _reachable(start: str) -> set[str]:
    """Every function and method name in src/rfloc that a call from start can
    reach, by name alone: a call of an attribute or a name reaches every
    definition of that name, in any module or class."""
    defs: dict[str, list[ast.AST]] = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append(node)
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in defs.get(name, []):
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    todo.append(func.attr if isinstance(func, ast.Attribute)
                                else getattr(func, "id", ""))
    return seen & set(defs)


def test_team_step_runs_no_gauss_newton():
    # The pipeline's team position is a closed-form resection: no call path
    # from cli._team reaches the damped Gauss-Newton or a linear solve.
    reached = _reachable("_team")
    assert {"team_relative_position", "_line_fit"} <= reached
    assert not reached & {"gauss_newton_raw", "_solve_rows", "trilaterate_lsq"}


def test_cli_row_driver_returns_the_drivers_unwrapped():
    rows = next(node for node in ast.parse(_source("cli.py")).body
                if isinstance(node, ast.FunctionDef) and node.name == "_rows")
    assert not [node for node in ast.walk(rows) if node is not rows and isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert "NoConvergence" not in {node.id for node in ast.walk(rows)
                                   if isinstance(node, ast.Name)}


@pytest.mark.parametrize("name", ["order_candidates", "_solve_one", "_trilaterate_rows",
                                  "_trilat_trials", "_tdoa_trials",
                                  *(f"{solve}_{dim}d" for solve in ("trilaterate", "locate_emitter")
                                    for dim in (2, 3))])
def test_one_row_driver_per_solver_leaves_no_twin(name):
    # Single runs and sweeps share trilat._batch and tdoa._fixes; the
    # per-problem solve, the Python-sorted candidate order, the per-family
    # sweep loops and the per-dimension public solves are gone. (The last
    # are spelled from parts, so that this file does not name them either.)
    for path in SOURCES:
        assert not re.search(rf"\b{name}\b", path.read_text(encoding="utf-8")), path.name


def test_one_linear_solve_serves_every_newton_step():
    # _polish and every damping rung of gauss_newton_raw go through _solve_rows.
    calls = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls |= {(path.name, getattr(top, "name", "<module>")) for top in tree.body
                  for node in ast.walk(top) if isinstance(node, ast.Attribute)
                  and ast.unparse(node) == "np.linalg.solve"}
    assert calls == {("solver.py", "_solve_rows")}
    assert not hasattr(solver, "_solve_step")


def test_gauss_newton_has_two_callers():
    # The TDOA fallback and the trilateration least squares; both end in _outcome.
    callers = {(path.name, *caller) for path in SOURCES
               for caller in _callers(path, ("gauss_newton_raw", "_outcome"))}
    assert callers == {("tdoa.py", "_fallback", "gauss_newton_raw"),
                       ("tdoa.py", "_fallback", "_outcome"),
                       ("trilat.py", "trilaterate_lsq", "gauss_newton_raw"),
                       ("trilat.py", "trilaterate_lsq", "_outcome")}


def test_trilateration_has_one_range_model():
    trilat = Path(rfloc.__file__).parent / "trilat.py"
    assert _callers(trilat, ("_norms",)) == {("_residuals", "_norms")}


def test_cli_draws_single_runs_and_sweeps_in_one_call():
    # A single run is the one-seed case of a sweep's draw: cli.run calls
    # simulate._perturb once, and the public one-seed wrapper and the
    # sweep-only wrapper are not on the CLI's path (the latter is gone).
    cli = Path(rfloc.__file__).parent / "cli.py"
    run = next(node for node in ast.parse(_source("cli.py")).body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    assert [ast.unparse(call.func) for call in ast.walk(run) if isinstance(call, ast.Call)
            and "perturb" in ast.unparse(call.func)] == ["_perturb"]
    assert _callers(cli, ("_perturb",)) == {("run", "_perturb")}
    assert not re.search(r"\bperturb_arrivals\b", _source("cli.py"))
    for path in SOURCES:
        assert not re.search(r"\bperturb_sweep\b", path.read_text(encoding="utf-8")), path.name


def test_arrivals_are_flight_times():
    # The simulator's clock starts at the emission, so a Scenario has no
    # emission time, and the schema's emission_time is accepted, checked and
    # dropped: src/ names it only in cli's table of fields.
    assert "emission_time" not in {field.name for field in dataclasses.fields(Scenario)}
    table = next(node for node in ast.parse(_source("cli.py")).body
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_SECTIONS")
    for path in SOURCES:
        lines = path.read_text(encoding="utf-8").splitlines()
        named = [i for i, line in enumerate(lines, 1) if "emission_time" in line]
        if path.name == "cli.py":
            assert len(named) == 1 and table.lineno <= named[0] <= table.end_lineno
        else:
            assert not named, path.name
