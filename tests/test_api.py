import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delpoint
from delpoint import Dataset

from conftest import invoke

# Names that must stay gone, by the module that defined them.
_ERRORS = ["EmptyDataset", "WouldEmptyDataset", "DimensionMismatch",
           "InvalidValue", "DomainError", "DegenerateNoise", "ZeroFeatureNorm",
           "FloorViolated", "TooManyDeletions", "EmptyInput"]
REMOVED = {
    "delpoint": ["as_weights", "lossgrad", "risk", "CandidateScore",
                 "SelectionResult", *_ERRORS],
    "delpoint.core": ["DataPoint", "delete_point", "SufficientStats",
                      "_json_rows", "_csv_tokens", "_dumps_indent2"],
    "delpoint.snr": ["SnrValue", "snr_closed_form", "membership_error",
                     "write_scores_csv"],
    "delpoint.bounds": ["RiskBounds", "risk_change_bounds",
                        "risk_change_bounds_floor", "_row_dots",
                        "_feature_norms", "interval_endpoints", "risk",
                        "_losses", "_privacy_floor_column"],
    "delpoint.sim": ["sgd_step", "empirical_advantage", "experiment_to_doc",
                     "Histogram"],
    "delpoint.gauss": ["sample_gaussian", "_erfc_array"],
    "delpoint.selector": ["rank_candidates", "_abs_tokens",
                          "selection_to_json", "_selection_chunks",
                          "SELECTION_JSON_FORMAT_VERSION", "CandidateScore",
                          "SelectionResult", "_COLUMNS"],
    "delpoint.cli": ["_bounds_json", "_Group"],
    "delpoint.errors": ["IndexOutOfRange", *_ERRORS],
    "delpoint.datagen": ["GenConfig"],
}


def test_all_names_resolve_once():
    # one name table: __all__ is __version__ and the names of _MODULES,
    # each defined in the module it is listed under
    assert delpoint.__all__ == ["__version__", *(
        name for names in delpoint._MODULES.values() for name in names)]
    assert len(delpoint.__all__) == len(set(delpoint.__all__)) == 20
    for module, names in delpoint._MODULES.items():
        for name in names:
            assert getattr(delpoint, name).__module__ == f"delpoint.{module}"
    assert set(delpoint.__all__) <= set(dir(delpoint))
    for name in delpoint.__all__:
        assert hasattr(delpoint, name), name
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        delpoint.nothing


def test_per_point_api_is_gone():
    for module_name, names in REMOVED.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert not hasattr(delpoint, name), name
            assert not hasattr(module, name), f"{module_name}.{name}"
            assert name not in delpoint.__all__
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("delpoint.lossgrad")
    # a point is named by its position: no ids, and no stats wrapper
    ds = Dataset.from_arrays([[1.0], [2.0]], [1.0, 2.0])
    for attr in ("from_points", "point", "points", "position_of", "ids",
                 "stats"):
        assert not hasattr(Dataset, attr), attr
        assert not hasattr(ds, attr), attr
    with pytest.raises(TypeError):
        Dataset.from_arrays([[1.0], [2.0]], [1.0, 2.0], ids=[0, 1])


def run_python(code: str, check=True, **kwargs):
    """A fresh interpreter that runs ``code`` with this checkout's src
    first on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], check=check,
                          capture_output=True, text=True,
                          env=os.environ | {"PYTHONPATH": path}, **kwargs)


# what ``import delpoint.cli`` loads of the package: no module that
# imports numpy
LIGHT_MODULES = ["delpoint", "delpoint._choices", "delpoint.cli",
                 "delpoint.errors"]

# the loaded package modules and any of click, numpy, orjson or a
# process pool
LOADED = ("sorted(m for m in sys.modules if m.split('.')[0] in ('delpoint',"
          " 'click', 'numpy', 'orjson', 'multiprocessing', 'concurrent'))")


def test_cli_import_loads_no_process_pool():
    # nor numpy: the numeric stack loads with the first dataset (see
    # cli.load_csv); nor orjson, which core imports at its first use;
    # and ``import delpoint`` resolves its names at their first access
    out = run_python(
        f"import sys, delpoint\nprint({LOADED})\n"
        f"dir(delpoint)\nimport delpoint.cli\nprint({LOADED})\n"
        "delpoint.phi\nprint(sys.modules['delpoint.gauss'].phi is"
        " delpoint.phi, 'numpy' in sys.modules)\n")
    assert out.stdout.splitlines() == [
        "['delpoint']", str(LIGHT_MODULES), "True True"]


@pytest.mark.parametrize("args", [
    ["--help"], ["--version"], ["report", "a/summary.json", "b/summary.json"]],
    ids=["help", "version", "report"])
def test_light_commands_load_no_numpy(tmp_path, args):
    # `report` reads JSON only; `--help` and `--version` read nothing
    for name, protocol in (("a", "no_delete"), ("b", "random_delete")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "summary.json").write_text(json.dumps({
            "config": {"steps": 1, "protocol": protocol},
            "mean": [0.5], "variance": [0.25]}))
    out = run_python(
        "import atexit, runpy, sys\n"
        f"atexit.register(lambda: print({LOADED}, file=sys.stderr))\n"
        f"sys.argv = ['delpoint', *{args!r}]\n"
        "runpy.run_module('delpoint.cli', run_name='__main__')\n",
        check=False, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    # run as __main__, the CLI module is not delpoint.cli
    assert out.stderr.splitlines()[-1] == str(
        [m for m in LIGHT_MODULES if m != "delpoint.cli"])


# what a dataset command needs not load: click, gone with argparse, nor
# dataclasses, which compiles methods at each start, nor statistics, which
# loads fractions and decimal for the one C function that gauss takes
UNNEEDED = ("click", "dataclasses", "statistics", "fractions", "decimal")


@pytest.mark.parametrize("args", [
    ["select"], ["bounds"],
    ["simulate", "--protocol", "perfect-delete", "--steps", "1",
     "--iterations", "2"]], ids=["select", "bounds", "simulate"])
def test_dataset_commands_load_no_unneeded_module(tmp_path, args):
    (tmp_path / "data.csv").write_text("x0,y\n1,2\n2,3\n3,5\n")
    out = run_python(
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('numpy', 'orjson', *"
        f"{UNNEEDED!r})), file=sys.stderr))\n"
        f"sys.argv = ['delpoint', *{args!r}, '--dataset', 'data.csv',"
        " '--out', 'out']\n"
        "runpy.run_module('delpoint.cli', run_name='__main__')\n",
        check=False, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    loaded = eval(out.stderr.splitlines()[-1])
    assert "numpy" in loaded and "orjson" in loaded
    assert [m for m in loaded if m.split(".")[0] in UNNEEDED] == []


def test_load_csv_loads_every_module_the_dataset_commands_use(tmp_path):
    # perfbench's probe calls the real cli.load_csv in its timed set-up,
    # then serves its datasets through a stub and times the commands as
    # the library path: no package module may load after that first call.
    # Nor does that call load numpy.random, which takes ~10 ms: select and
    # bounds draw nothing, and sim and gauss reach it with the first stream.
    (tmp_path / "data.csv").write_text("x0,y\n1,2\n2,3\n3,5\n")
    out = run_python(
        "import contextlib, io, sys\n"
        "import delpoint.cli as cli\n"
        "ds = cli.load_csv('data.csv')\n"
        "before = set(sys.modules)\n"
        "print(sorted(m for m in before if m.startswith('numpy.random')"
        " or m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
        "cli.load_csv = lambda path: ds\n"
        "for args in (['select'], ['bounds'], ['simulate', '--protocol',"
        " 'perfect-delete', '--iterations', '3', '--out', 'sim']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.main([*args, '--dataset', 'data.csv'],"
        " standalone_mode=False)\n"
        "print(sorted(m for m in set(sys.modules) - before"
        " if m.split('.')[0] in ('delpoint', 'orjson')"
        " or m.startswith('numpy') and not m.startswith('numpy.random')))\n",
        cwd=tmp_path)
    assert out.stdout == "[]\n[]\n"


def test_cli_import_freezes_nothing():
    # only the process entry run() freezes the heap, not the import
    out = run_python("import gc, delpoint.cli; print(gc.get_freeze_count())")
    assert out.stdout == "0\n"


@pytest.mark.parametrize("args, code", [
    (["--version"], 0), (["select", "--dataset", "missing.csv"], 2),
    (["select", "--dataset", "data.csv", "--delta", "0"], 3)],
    ids=["version", "missing-dataset", "no-point"])
def test_main_module_freezes_the_heap_at_exit(tmp_path, args, code):
    # `python -m delpoint.cli` through run(): after the command, however it
    # exits, the heap is frozen when the atexit hooks run
    (tmp_path / "data.csv").write_text("x0,y\n1,2\n2,3\n3,5\n")
    out = run_python(
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(),"
        " file=sys.stderr))\n"
        f"sys.argv = ['delpoint', *{args!r}]\n"
        "runpy.run_module('delpoint.cli', run_name='__main__')\n",
        check=False, cwd=tmp_path)
    assert out.returncode == code, out.stderr
    frozen = out.stderr.splitlines()[-1].split()
    assert frozen[0] == "frozen" and int(frozen[1]) > 0


@pytest.mark.parametrize("command", ["select", "bounds"])
def test_near_target_series_imports_nothing(tmp_path, command):
    # the advantage and privacy floor near the target are summed with
    # numpy alone: no per-process import of numpy.polynomial (~3 ms),
    # scipy or mpmath by the time the command exits
    (tmp_path / "data.csv").write_text("x0,y\n1,2\n2,3\n3,5\n")
    out = run_python(
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(sorted(m for m in sys.modules if"
        " m.split('.')[0] in ('scipy', 'mpmath')"
        " or m.startswith('numpy.polynomial')), file=sys.stderr))\n"
        f"sys.argv = ['delpoint', {command!r}, '--dataset', 'data.csv',"
        " '--out', 'out']\n"
        "runpy.run_module('delpoint.cli', run_name='__main__')\n",
        check=False, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stderr.splitlines()[-1] == "[]"


def test_script_and_main_module_share_one_entry():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"delpoint": "delpoint.cli:run"}
    tree = ast.parse((root / "src" / "delpoint" / "cli.py").read_text(
        encoding="utf-8"))
    blocks = [node.body for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [[ast.unparse(stmt) for stmt in body] for body in blocks] == [
        ["run()"]]


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads or writes again.

    A name counts as used when any Name node of the module has it, so an
    ``import a.b`` is used by ``a.b.c``.  ``from __future__`` and star
    imports bind nothing to check.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names
                         if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_no_unused_imports():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nimport math\n"
                          "from json import dumps as d, loads\n"
                          "os.path.join(d)\n") == ["loads", "math"]
    root = Path(__file__).resolve().parents[1]
    files = [p for p in sorted((root / "src" / "delpoint").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((root / "tests").glob("*.py"))
    assert len(files) > 20
    found = {str(p.relative_to(root)): names for p in files
             if (names := unused_imports(p.read_text(encoding="utf-8")))}
    assert found == {}


# the writers of core, which only cli, the module that writes files, uses
_CORE_WRITERS = {"_write_csv", "_json_chunks", "_tokens", "_row_blocks"}


def layout_breaches(source: str) -> list[str]:
    """The ``*_FORMAT_VERSION`` names that ``source`` defines and the
    _CORE_WRITERS it imports from core: what only cli may do."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            found += [t.id for t in node.targets if isinstance(t, ast.Name)
                      and t.id.endswith("_FORMAT_VERSION")]
        elif (isinstance(node, ast.ImportFrom)
              and node.module in ("core", "delpoint.core")):
            found += [a.name for a in node.names if a.name in _CORE_WRITERS]
    return sorted(found)


def test_only_cli_decides_artifact_layouts():
    assert layout_breaches("from .core import Dataset, _write_csv\n"
                           "X_FORMAT_VERSION = 1\n") == [
        "X_FORMAT_VERSION", "_write_csv"]
    root = Path(__file__).resolve().parents[1] / "src" / "delpoint"
    files = sorted(root.glob("*.py"))
    assert len(files) > 10
    assert layout_breaches((root / "cli.py").read_text(encoding="utf-8"))
    found = {p.name: names for p in files if p.name != "cli.py"
             and (names := layout_breaches(p.read_text(encoding="utf-8")))}
    assert found == {}
    # nor does another module spell a written column list
    from delpoint import cli
    columns = {name: getattr(cli, name)
               for name in ("_SELECTION_COLUMNS", "_SCORES_CSV_HEADER")}
    found = {p.name: sorted(names) for p in files
             if (names := choice_copies(p.read_text(encoding="utf-8"),
                                        columns))}
    assert found == {"cli.py": sorted(
        [*columns, *map(repr, columns.values())])}


def error_path_breaches(source: str) -> list[str]:
    """The DelpointError, ArithmeticError and FloatingPointError that the
    ``except`` clauses of ``source`` name, and its errstate or seterr
    calls that set a "raise": cli alone maps library errors to exit
    codes, and the library finds overflow from its results."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = getattr(node.type, "elts", [node.type])
            found += [f"except {name}" for t in types
                      if (name := getattr(t, "id", getattr(t, "attr", None)))
                      in ("DelpointError", "ArithmeticError",
                          "FloatingPointError")]
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) in ("errstate", "seterr")
              and "raise" in [getattr(a, "value", None) for a in
                              [*node.args, *(k.value for k in node.keywords)]]):
            found.append(f"{node.func.attr} raise")
    return sorted(found)


def test_only_cli_catches_library_errors():
    assert error_path_breaches(
        "try:\n    f()\nexcept (errors.DelpointError, OSError):\n    pass\n"
        "except FloatingPointError:\n    pass\n"
        "with np.errstate(over='raise'):\n    pass\n"
        "with np.errstate(over='ignore'):\n    pass\n") == [
        "errstate raise", "except DelpointError", "except FloatingPointError"]
    root = Path(__file__).resolve().parents[1] / "src" / "delpoint"
    files = sorted(root.glob("*.py"))
    assert len(files) > 10
    found = {p.name: names for p in files
             if (names := error_path_breaches(p.read_text(encoding="utf-8")))}
    assert found == {"cli.py": ["except ArithmeticError",
                                "except DelpointError"]}


def raised_classes(source: str) -> list[str]:
    """``function: Class`` for each ``raise`` of ``source`` that names a
    class, or a call of one, by its innermost enclosing function; a bare
    re-raise names none."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = getattr(child.exc, "func", child.exc)
                found.append(f"{scope}: {ast.unparse(exc)}")
            visit(child, getattr(child, "name", scope))

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_one_error_class_per_exit_code():
    # DelpointError exits 2 and NumericOverflow exits 4: the library raises
    # nothing else, but for the AttributeError that ends a name lookup
    assert raised_classes("def f():\n    raise errors.X('a') from None\n"
                          "raise Y\ntry:\n    pass\nexcept E:\n"
                          "    raise\n") == ["<module>: Y", "f: errors.X"]
    from delpoint.errors import DelpointError, NumericOverflow
    assert DelpointError.__bases__ == (Exception,)
    assert NumericOverflow.__bases__ == (DelpointError, ArithmeticError)
    root = Path(__file__).resolve().parents[1] / "src" / "delpoint"
    tree = ast.parse((root / "errors.py").read_text(encoding="utf-8"))
    assert [node.name for node in tree.body
            if not isinstance(node, ast.Expr)] == [
        "DelpointError", "NumericOverflow"]
    files = sorted(root.glob("*.py"))
    assert len(files) > 10
    found = {p.name: names for p in files
             if (names := [
                 r for r in raised_classes(p.read_text(encoding="utf-8"))
                 if r.split(": ")[1] not in ("DelpointError",
                                             "NumericOverflow")])}
    # and the option types of cli, whose usage errors argparse exits 2 on,
    # and the AttributeError of writing to a frozen record, as Python's
    # own read-only attributes raise
    assert found == {"__init__.py": ["__getattr__: AttributeError"],
                     "core.py": ["__delattr__: AttributeError",
                                 "__setattr__: AttributeError"],
                     "cli.py": ["_seed: argparse.ArgumentTypeError",
                                "convert: argparse.ArgumentTypeError"]}


@pytest.mark.parametrize("field", ["mean", "variance"])
@pytest.mark.parametrize("spelling", ["NaN", "Infinity", "1e999"])
def test_report_rejects_non_finite_summaries(tmp_path, spelling, field):
    # json reads all three as floats, 1e999 as inf; a report of them is
    # not a table of the simulate summaries it names
    lists = {"mean": "[0.5, 1.0]", "variance": "[0.25, 0.0]",
             field: f"[0.5, {spelling}]"}
    path = tmp_path / "summary.json"
    path.write_text('{"config": {"steps": 1, "protocol": "no_delete"}, '
                    + ", ".join(f'"{k}": {v}' for k, v in lists.items())
                    + "}")
    res = invoke(["report", str(path)])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert res.stderr == (
        f"error: {path}: not a simulate summary.json: "
        "mean and variance must be non-empty lists of numbers\n")


def test_every_command_maps_library_errors(tmp_path, monkeypatch):
    # main maps the errors of all five commands in one place, after
    # parsing: a body that raises exits with the code of its error and
    # one line on stderr, and no traceback
    from delpoint import cli
    from delpoint.errors import DelpointError, NumericOverflow
    assert list(cli._COMMANDS) == [
        "gen", "select", "bounds", "simulate", "report"]
    monkeypatch.chdir(tmp_path)
    Path("data.csv").write_text("x0,y\n1,2\n2,3\n")
    Path("summary.json").write_text("{}")
    args = {"gen": ["--out", "out"], "select": ["--dataset", "data.csv"],
            "bounds": ["--dataset", "data.csv"],
            "simulate": ["--dataset", "data.csv", "--protocol", "no-delete",
                         "--out", "out"], "report": ["summary.json"]}
    errors = [(DelpointError("bad input"), 2, "error: bad input"),
              (OSError("no room"), 2, "error: no room"),
              (NumericOverflow("too big"), 4, "numeric error: too big"),
              (FloatingPointError("nan"), 4, "numeric error: nan")]
    for name, (fn, options) in list(cli._COMMANDS.items()):
        for exc, code, line in errors:
            def body(**config):
                raise exc
            monkeypatch.setitem(cli._COMMANDS, name, (body, options))
            res = invoke([name, *args[name]])
            assert (res.exit_code, res.stderr) == (code, line + "\n"), name
            assert isinstance(res.exception, SystemExit)
    assert sorted(os.listdir(tmp_path)) == ["data.csv", "summary.json"]


def choice_copies(source: str, choices: dict) -> list[str]:
    """The names of ``choices`` that ``source`` assigns, and the reprs of
    the string tuples and lists it spells out that equal one of their
    values."""
    values = set(choices.values())
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            found += [t.id for t in node.targets
                      if isinstance(t, ast.Name) and t.id in choices]
        elif isinstance(node, (ast.Tuple, ast.List)) and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in node.elts):
            spelled = tuple(e.value for e in node.elts)
            if spelled in values:
                found.append(repr(spelled))
    return found


def test_each_choice_tuple_has_one_definition():
    # cli gives these to argparse before any dataset is read, so their one
    # definition is in a module that imports nothing, and core, selector
    # and sim check their arguments against the same objects
    from delpoint import _choices, core, selector, sim
    choices = {name: getattr(_choices, name)
               for name in ("_SNR_CONVENTIONS", "_TIE_BREAKS", "PROTOCOLS")}
    assert choice_copies("A = ('paper', 'consistent')\nB = ['paper']\n"
                         "f(['norm-first', 'paper'])\n", choices) == [
        "('paper', 'consistent')", "('norm-first', 'paper')"]
    assert core._SNR_CONVENTIONS is choices["_SNR_CONVENTIONS"]
    assert selector._TIE_BREAKS is choices["_TIE_BREAKS"]
    assert sim.PROTOCOLS is choices["PROTOCOLS"]
    root = Path(__file__).resolve().parents[1] / "src" / "delpoint"
    source = (root / "_choices.py").read_text(encoding="utf-8")
    assert not [node for node in ast.walk(ast.parse(source))
                if isinstance(node, (ast.Import, ast.ImportFrom))]
    found = {p.name: sorted(names) for p in sorted(root.glob("*.py"))
             if (names := choice_copies(p.read_text(encoding="utf-8"),
                                        choices))}
    assert found == {"_choices.py": sorted(
        [*choices, *map(repr, choices.values())])}
