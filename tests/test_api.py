import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delpoint
from delpoint import Dataset

# The per-point API that scan_arrays, bounds_arrays and risk on a
# one-row dataset replace, and the one-iteration stepping and ranking API
# that run_protocol's batched engine and find_perfect_deleted_point
# replace, the moments wrapper whose arrays a Dataset now holds, and the
# whole-document row writers that the streamed _json_chunks replaces,
# and the distance-from-eps token reuse that core._tokens made needless,
# and the code no command runs: the Monte Carlo advantage estimator with
# the gradient and the index error that only it used, now test oracles,
# and the joined selection.json that the streamed pieces replace, and the
# artifact layouts that moved into cli with the CSV tokens that core's one
# row encoder made needless; by the module that defined it.
REMOVED = {
    "delpoint.core": ["DataPoint", "delete_point", "SufficientStats",
                      "_json_rows", "_csv_tokens"],
    "delpoint.lossgrad": ["point_loss", "point_grad", "deleted_grad",
                          "risk_grad"],
    "delpoint.snr": ["SnrValue", "snr_closed_form", "membership_error",
                     "write_scores_csv"],
    "delpoint.bounds": ["RiskBounds", "risk_change_bounds",
                        "risk_change_bounds_floor", "_row_dots",
                        "_feature_norms"],
    "delpoint.sim": ["sgd_step", "empirical_advantage", "experiment_to_doc"],
    "delpoint.gauss": ["sample_gaussian"],
    "delpoint.selector": ["rank_candidates", "_abs_tokens",
                          "selection_to_json", "_selection_chunks",
                          "SELECTION_JSON_FORMAT_VERSION"],
    "delpoint.cli": ["_bounds_json"],
    "delpoint.errors": ["IndexOutOfRange"],
}


def test_all_names_resolve_once():
    assert len(delpoint.__all__) == len(set(delpoint.__all__))
    for name in delpoint.__all__:
        assert hasattr(delpoint, name), name


def test_per_point_api_is_gone():
    for module_name, names in REMOVED.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert not hasattr(delpoint, name), name
            assert not hasattr(module, name), f"{module_name}.{name}"
            assert name not in delpoint.__all__
    # a point is named by its position: no ids, and no stats wrapper
    ds = Dataset.from_arrays([[1.0], [2.0]], [1.0, 2.0])
    for attr in ("from_points", "point", "points", "position_of", "ids",
                 "stats"):
        assert not hasattr(Dataset, attr), attr
        assert not hasattr(ds, attr), attr
    with pytest.raises(TypeError):
        Dataset.from_arrays([[1.0], [2.0]], [1.0, 2.0], ids=[0, 1])


def test_cli_import_loads_no_process_pool():
    # nor numpy.random: select and bounds draw nothing, and it takes ~10 ms
    # to import, so sim and gauss reach it only when a stream is made; nor
    # orjson, which core._tokens imports when it first writes a row table
    code = ("import sys, delpoint.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent', "
            "'orjson')"
            " or m.startswith('numpy.random')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=os.environ | {"PYTHONPATH": path})
    assert out.stdout == "[]\n"


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
_CORE_WRITERS = {"_write_csv", "_json_chunks", "_dumps_indent2", "_tokens",
                 "_row_blocks"}


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
