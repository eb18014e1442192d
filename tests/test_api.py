import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delpoint
from delpoint import Dataset

# The per-point API that scan_arrays, bounds_arrays and risk_grad on a
# one-row dataset replace, and the one-iteration stepping and ranking API
# that run_protocol's batched engine and find_perfect_deleted_point
# replace, the moments wrapper whose arrays a Dataset now holds, and the
# whole-document row writers that the streamed _json_chunks replaces, by
# the module that defined it.
REMOVED = {
    "delpoint.core": ["DataPoint", "delete_point", "SufficientStats",
                      "_json_rows"],
    "delpoint.lossgrad": ["point_loss", "point_grad", "deleted_grad"],
    "delpoint.snr": ["SnrValue", "snr_closed_form", "membership_error"],
    "delpoint.bounds": ["RiskBounds", "risk_change_bounds",
                        "risk_change_bounds_floor", "_row_dots",
                        "_feature_norms"],
    "delpoint.sim": ["sgd_step"],
    "delpoint.gauss": ["sample_gaussian"],
    "delpoint.selector": ["rank_candidates"],
    "delpoint.cli": ["_bounds_json"],
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
    # to import, so sim and gauss reach it only when a stream is made
    code = ("import sys, delpoint.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')"
            " or m.startswith('numpy.random')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=os.environ | {"PYTHONPATH": path})
    assert out.stdout == "[]\n"
