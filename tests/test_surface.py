"""The package's public surface: no dead imports, honest __all__ lists, and
a pinned set of top-level names.

The import and __all__ checks parse src/rfloc/*.py with the standard
library's ast module, so they need no linter.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import rfloc
from rfloc import Scenario, _kernels, solver, tdoa

SOURCES = sorted(Path(rfloc.__file__).parent.glob("*.py"))

# A name stays public only if the CLI, a grid oracle, the acceptance module
# or a documented paper step calls it. Adding one is a change to review.
PUBLIC = {
    "__version__", "errors",
    "Point", "distance",
    "DopplerReading", "DopplerRange", "doppler_shift", "doppler_distance",
    "Scenario", "ArrivalSet", "simulate_arrivals", "perturb_arrivals",
    "SolveResult", "finite_difference_jacobian", "grid_search",
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
    # The closed-form TDOA batch has one caller. solver._triangle, the one
    # triangle rule of both closed forms, has one caller in each.
    expected = {"tdoa.py": {("_fixes", "_plane_batch"), ("_fixes", "_triangle")},
                "trilat.py": {("_closed_form", "_triangle")}}
    assert _callers(path, ("_plane_batch", "_triangle")) == expected.get(path.name, set())


def test_one_triangle_rule_serves_both_closed_forms():
    # Only solver defines _triangle, and only it builds a "collinear"
    # message: trilateration has no collinearity test of its own.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name for name, tree in trees.items() if "_triangle" in _defined(tree)} == {"solver.py"}
    assert {name for name, tree in trees.items() for call in ast.walk(tree)
            if isinstance(call, ast.Call) for node in ast.walk(call)
            if isinstance(node, ast.Constant) and "collinear" in str(node.value)} == {"solver.py"}


def test_trilateration_batch_takes_no_norm_of_its_own():
    # _batch refuses a row whose plain residual norm overflows: it takes no
    # norm again with math.dist or math.hypot, and checks no shapes (its two
    # callers pass validated ones).
    batch = next(node for node in ast.parse(_source("trilat.py")).body
                 if isinstance(node, ast.FunctionDef) and node.name == "_batch")
    attributes = {(node.value.id, node.attr) for node in ast.walk(batch)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    assert not attributes & {("math", "dist"), ("math", "hypot")}
    assert "ValueError" not in {node.id for node in ast.walk(batch) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_batch_drives_the_closed_form_trilateration(path):
    expected = {("_batch", "_closed_form")} if path.name == "trilat.py" else set()
    assert _callers(path, ("_closed_form",)) == expected


def test_one_candidate_ranking_serves_both_closed_forms():
    # solver._rank orders the roots of the TDOA and the trilateration closed
    # forms, the estimate first; only it reads the residual tie _TIE_EPS, and
    # the TDOA batch carries no separate pick of its estimate.
    callers = {(path.name, *caller) for path in SOURCES for caller in _callers(path, ("_rank",))}
    assert callers == {("tdoa.py", "_plane_batch", "_rank"), ("trilat.py", "_batch", "_rank")}
    readers = {(path.name, getattr(top, "name", "<module>")) for path in SOURCES
               for top in ast.parse(path.read_text(encoding="utf-8")).body
               for node in ast.walk(top) if isinstance(node, ast.Name)
               and node.id == "_TIE_EPS" and isinstance(node.ctx, ast.Load)}
    assert readers == {("solver.py", "_rank")}
    assert "near" not in tdoa._PlaneRoots._fields


def test_cli_picks_its_row_driver_in_one_function():
    cli = Path(rfloc.__file__).parent / "cli.py"
    assert _callers(cli, ("_fixes", "_batch")) == {("_rows", "_fixes"), ("_rows", "_batch")}


def test_cli_assembles_a_trial_in_one_function():
    # Single runs, sweep rows and the per-trial reference take a trial's
    # solves, and a pipeline's team, from _solves alone.
    cli = Path(rfloc.__file__).parent / "cli.py"
    assert _callers(cli, ("_team",)) == {("_solves", "_team")}
    assert _callers(cli, ("fix",)) == {("_solves", "fix")}
    assert _callers(cli, ("_solves",)) == {("run", "_solves"), ("_mc_trial", "_solves"),
                                           ("_trials", "_solves")}


def test_cli_solves_a_file_on_one_path():
    # A file's single epoch and its sweep's trials come from one _trials
    # call; explicit trilat distances and the per-trial reference are the
    # only other row drivers.
    cli = Path(rfloc.__file__).parent / "cli.py"
    assert _callers(cli, ("_rows",)) == {("run", "_rows"), ("_mc_trial", "_rows"),
                                         ("_trials", "_rows")}


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
    assert not reached & {"gauss_newton_raw", "_solve", "trilaterate_lsq"}


def test_cli_row_driver_returns_the_drivers_unwrapped():
    rows = next(node for node in ast.parse(_source("cli.py")).body
                if isinstance(node, ast.FunctionDef) and node.name == "_rows")
    assert not [node for node in ast.walk(rows) if node is not rows and isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert "NoConvergence" not in {node.id for node in ast.walk(rows)
                                   if isinstance(node, ast.Name)}


@pytest.mark.parametrize("name", ["order_candidates", "_solve_one", "_trilaterate_rows",
                                  "_trilat_trials", "_tdoa_trials", "_solve_rows",
                                  "_polish", "_POLISH_STEPS", "_FLOOR_ULPS", "SolverOptions",
                                  "_order",
                                  *(f"{solve}_{dim}d" for solve in ("trilaterate", "locate_emitter")
                                    for dim in (2, 3))])
def test_one_row_driver_per_solver_leaves_no_twin(name):
    # Single runs and sweeps share trilat._batch and tdoa._fixes; the
    # per-problem solve, the Python-sorted candidate order, the per-family
    # sweep loops, the per-dimension public solves, the stacked linear solve,
    # the TDOA roots' Newton polish, the Gauss-Newton's options and
    # trilateration's own candidate order (now solver._rank) are gone.
    # (The per-dimension solves are spelled from parts, so that this file
    # does not name them either.)
    for path in SOURCES:
        assert not re.search(rf"\b{name}\b", path.read_text(encoding="utf-8")), path.name


def test_one_linear_solve_serves_every_newton_step():
    # Every damping rung of gauss_newton_raw solves its one system through
    # _solve, and nothing else solves a linear system.
    calls = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls |= {(path.name, getattr(top, "name", "<module>")) for top in tree.body
                  for node in ast.walk(top) if isinstance(node, ast.Attribute)
                  and ast.unparse(node) == "np.linalg.solve"}
    assert calls == {("solver.py", "_solve")}
    assert not hasattr(solver, "_solve_step")
    assert {(path.name, *caller) for path in SOURCES for caller in _callers(path, ("_solve",))} \
        == {("solver.py", "gauss_newton_raw", "_solve")}


def test_blas_and_lapack_are_called_only_by_the_gauss_newton():
    # A matmul or an np.linalg call runs whichever kernel OpenBLAS picks for
    # the CPU, and its bits can differ between kernels. Only the damped
    # Gauss-Newton's normal equations and its one linear solve call them; the
    # closed forms sum through solver._rowdot. This set may only shrink.
    sites = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = (path.name, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if isinstance(node, (ast.BinOp, ast.AugAssign)):
                    if isinstance(node.op, ast.MatMult):
                        sites.add((*where, "@"))
                elif isinstance(node, ast.Attribute) and ast.unparse(node) == "np.linalg":
                    sites.add((*where, "np.linalg"))
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    if "linalg" in ast.unparse(node):
                        sites.add((*where, "import"))
    assert sites == {("solver.py", "gauss_newton_raw", "@"), ("solver.py", "_solve", "np.linalg")}
    for name in ("tdoa.py", "trilat.py"):
        assert "linalg" not in _source(name) and " @ " not in _source(name), name


def test_no_number_type_whose_width_depends_on_the_platform():
    # np.longdouble is 80-bit extended on x86-64 Linux, binary128 on aarch64
    # Linux and float64 on Windows and macOS-arm64: computing in it would give
    # one scenario file different report bits on different CPUs.
    extended = re.compile(r"\b(c?longdouble|float96|float128|longfloat)\b")
    assert {path.name for path in SOURCES if extended.search(path.read_text(encoding="utf-8"))} \
        == set()


def test_gauss_newton_has_two_callers():
    # The TDOA fallback and the trilateration least squares; both end in _outcome.
    callers = {(path.name, *caller) for path in SOURCES
               for caller in _callers(path, ("gauss_newton_raw", "_outcome"))}
    assert callers == {("tdoa.py", "_fallback", "gauss_newton_raw"),
                       ("tdoa.py", "_fallback", "_outcome"),
                       ("trilat.py", "trilaterate_lsq", "gauss_newton_raw"),
                       ("trilat.py", "trilaterate_lsq", "_outcome")}


def test_gauss_newton_takes_no_options():
    # Its iteration cap, stop tolerances and first damping rung are solver's
    # constants, not parameters of the loop or of its two callers.
    assert list(inspect.signature(solver.gauss_newton_raw).parameters) == [
        "residual_fn", "jacobian_fn", "x0"]
    assert list(inspect.signature(rfloc.trilaterate_lsq).parameters) == ["problem", "init"]
    assert list(inspect.signature(rfloc.locate_emitter).parameters) == [
        "receivers", "rd", "emitter_plane_z"]


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


def test_grid_search_has_one_minimizer():
    # Every objective goes through the branch and bound, a plain callable
    # with a bound that prunes nothing: grid_search has no loop of its own,
    # and only _first_min, called by the bounded search alone, takes an
    # argmin of node values.
    path = Path(solver.__file__)
    assert _callers(path, ("_first_min",)) == {("_bounded_search", "_first_min")}
    assert _callers(path, ("_bounded_search",)) == {("grid_search", "_bounded_search")}
    search = next(node for node in ast.parse(_source("solver.py")).body
                  if isinstance(node, ast.FunctionDef) and node.name == "grid_search")
    assert not [node for node in ast.walk(search) if isinstance(node, (ast.For, ast.While))]
    argmins = {(path.name, getattr(top, "name", "<module>")) for path in SOURCES
               for top in ast.parse(path.read_text(encoding="utf-8")).body
               for node in ast.walk(top)
               if isinstance(node, ast.Attribute) and node.attr in ("argmin", "nanargmin")}
    assert argmins == {("solver.py", "_first_min")}


def test_grid_objective_has_one_node_evaluator_and_no_buffers():
    # GridObjective.evaluate returns a fresh array from temporaries of its
    # own call: no evaluator factory, no buffer pool, no buffer parameters.
    # The residual sum is folded into evaluate, its one caller.
    assert not hasattr(_kernels.GridObjective, "evaluator")
    assert list(inspect.signature(_kernels.GridObjective.evaluate).parameters) == [
        "self", "coords"]
    assert list(inspect.signature(_kernels._distances).parameters) == ["coords", "a"]
    assert not hasattr(_kernels, "_sum_sq")
    assert not re.search(r"\bnp\.empty\b", _source("_kernels.py"))
