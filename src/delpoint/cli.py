"""Command-line front door: gen / select / bounds / simulate / report.

Every command takes an explicit ``--seed`` and, whenever it writes
artifacts (``--out``), drops a manifest.json that records its options as
they were parsed, defaults included, and nothing that varies between
runs: rerunning the command with those options, at the same BLAS thread
count, writes the same bytes, the manifest's included.
Exit codes: 0 success, 2 usage or malformed input, 3 no point within
tolerance (select only), 4 internal numeric failure; ``main`` alone
maps library errors to 2 and 4.  This module decides every
artifact's path and layout; core encodes the rows and writes the CSVs.
``bounds`` and ``report`` print their document and write it to --out as
they go; ``select`` prints only the head of selection.json, after every
file it writes, and encodes score rows only for those files.

At the top this module imports only the standard library and the
package's numpy-free modules, so ``--help``, ``--version`` and ``report``
start without numpy.  The numeric modules load with the first dataset,
in ``load_csv``, and the command bodies take their names from them there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from ._choices import _SNR_CONVENTIONS, _TIE_BREAKS, PROTOCOLS
from .errors import DelpointError

# argparse looks up its messages through gettext, which imports locale at
# the first lookup: import it with argparse, as part of start-up rather
# than of the first command parsed
importlib.import_module("locale")

MANIFEST_FORMAT_VERSION = 2
SELECTION_JSON_FORMAT_VERSION = 2
BOUNDS_FORMAT_VERSION = 2
SUMMARY_FORMAT_VERSION = 1

_SCORES_CSV_HEADER = ("index", "d_v", "eps_v", "advantage", "feature_norm")
_SELECTION_COLUMNS = ("index", "d_v", "eps_v", "feature_norm")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_PERFECT_POINT = 3
EXIT_NUMERIC = 4

# the modules whose names select, bounds and simulate use, with what they
# import; load_csv imports them (see there)
_DATASET_STACK = ("core", "snr", "selector", "bounds", "sim")

# each command's name -> (function, options), filled by _command
_COMMANDS: dict = {}

# the command that main runs and its parsed options, for the manifest
_running: dict = {}


def _write_manifest(out_dir: Path, artifacts: list[str]) -> None:
    """manifest.json of the running command: its ``config`` maps each
    option, in the order the command declares them (not the order of
    argv), to its value as main parsed it, defaults included.  A path is
    written as its text and a list of paths as a list."""
    doc = {"format_version": MANIFEST_FORMAT_VERSION, **_running,
           "artifacts": artifacts, "tool_version": __version__}
    (out_dir / "manifest.json").write_text(
        json.dumps(doc, indent=2, default=os.fspath) + "\n", encoding="utf-8")


def _emit(piece: str) -> bool:
    """Write ``piece`` to sys.stdout and flush it; False once the reader
    has gone (| head).  fd 1 then points at os.devnull, so later writes
    and the flush at exit are quiet (see the SIGPIPE note in the
    ``signal`` docs)."""
    try:
        sys.stdout.write(piece)
        sys.stdout.flush()
        return True
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False


def _stream(chunks, out_dir: Path | None, name: str) -> None:
    """Write the pieces of a document, the iterable ``chunks``, to stdout,
    and to out_dir / name when --out is given: the output of ``bounds``
    and ``report``, whose document is their answer (``select`` prints
    only its head).

    Only one block of rows is held at a time.  If writing the file fails
    part way, stdout may already hold the first part of the document.
    Once the reader of stdout has gone, the rest goes to the file alone.
    """
    chunks = iter(chunks)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    with (open(out_dir / name, "w", encoding="utf-8")
          if out_dir is not None else contextlib.nullcontext()) as fh:
        for chunk in chunks:
            if fh is not None:
                fh.write(chunk)
            if not _emit(chunk):
                if fh is not None:
                    fh.writelines(chunks)
                return


def load_csv(path: Path):
    """The Dataset in the CSV file ``path`` (core.load_csv), after the
    modules of _DATASET_STACK are imported.

    Every dataset command reads its CSV through this module's
    ``load_csv`` attribute, before it uses a name of those modules, so
    ``--help``, ``--version`` and ``report`` never load numpy.
    perfbench/probe.py calls this function in its timed set-up and then
    replaces it to serve the datasets it has loaded, so those imports
    stay in the probe's set-up and out of the library path it times.
    """
    for name in _DATASET_STACK:
        importlib.import_module(f".{name}", __package__)
    return importlib.import_module(".core", __package__).load_csv(path)


def _parse_w0(value: str | None, dim: int):
    import numpy as np
    if value is None:
        return np.zeros(dim)
    try:
        w0 = np.array([float(v) for v in value.split(",")])
    except ValueError:
        raise DelpointError(f"--w0 must be a comma-separated float list, "
                            f"got {value!r}") from None
    if w0.shape[0] != dim:
        raise DelpointError(
            f"--w0 has {w0.shape[0]} entries, dataset dimension is {dim}")
    return w0


def _load_inputs(dataset: Path, w0: str | None, hyper: dict):
    """Dataset, HyperParams and start weights of a dataset command.

    ``hyper`` holds the HyperParams fields of _DATASET_OPTIONS.  The
    CSV is read through this module's ``load_csv`` attribute, which
    perfbench/probe.py replaces to serve datasets it has already loaded.
    """
    ds = load_csv(dataset)
    from .core import HyperParams
    return ds, HyperParams(**hyper), _parse_w0(w0, ds.dim)


def _path(refuse, problem: str):
    """An argparse type: the text as a Path, refused where ``refuse``."""
    def convert(text: str) -> Path:
        if refuse(Path(text)):
            raise argparse.ArgumentTypeError(f"{text!r} {problem}")
        return Path(text)
    return convert


def _seed(text: str) -> int:
    """An argparse type: an int in 0..2**64 - 1, in decimal digits."""
    if text.isdecimal() and int(text) < 2**64:
        return int(text)
    raise argparse.ArgumentTypeError(f"{text!r} is not in 0..{2**64 - 1}")


_INPUT = _path(lambda p: not p.exists() or p.is_dir(),
               "does not exist or is a directory")


def _out(names: str, required=False) -> dict:
    return {"--out": dict(
        dest="out_dir", type=_path(Path.is_file, "is a file"),
        required=required, help=f"Directory for {names} and the manifest.")}


# --dataset, --w0 and one option per HyperParams field; see _load_inputs
_DATASET_OPTIONS = {
    "--dataset": dict(type=_INPUT, required=True),
    "--gamma": dict(type=float, default=0.01, help="Learning rate."),
    "--sigma": dict(type=float, default=2.0,
                    help="Gradient noise standard deviation."),
    "--alpha": dict(type=float, default=0.01,
                    help="Type I error of the membership test."),
    "--delta": dict(type=float, default=100.0,
                    help="Largest acceptable |d_v - target|."),
    "--w0": dict(help="Initial weights as a comma-separated list "
                 "(default: zeros)."),
    "--seed": dict(type=_seed, default=0, help="RNG seed: simulate draws "
                   "from it; select and bounds only record it."),
    "--snr-convention": dict(choices=_SNR_CONVENTIONS, default="paper",
                             help="Denominator convention for d_v.")}
_TIE_BREAK = {"--tie-break": dict(
    choices=_TIE_BREAKS, default="norm-first",
    help="Tie handling among near-minimal candidates.")}


def _command(options: dict):
    """Register the decorated function as the command of its name, with
    ``options``, flag -> add_argument keywords, in its manifest's order."""
    def register(fn):
        _COMMANDS[fn.__name__] = fn, options
        return fn
    return register


@_command({"--n": dict(type=int, default=200),
           "--extra-features": dict(type=int, default=0),
           "--seed": dict(type=_seed, default=40),
           **_out("dataset.csv", required=True)})
def gen(out_dir, **params):
    """Generate a synthetic dataset CSV plus a manifest."""
    from .core import save_csv
    from .datagen import generate
    ds = generate(**params)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "dataset.csv"
    save_csv(ds, csv_path)
    _write_manifest(out_dir, [csv_path.name])
    _emit(f"{csv_path}\n")


@_command(_DATASET_OPTIONS | _TIE_BREAK | {"--scores-csv": dict(
    type=_path(Path.is_dir, "is a directory"),
    help="Also write the per-point scan CSV here.")} | _out("selection.json"))
def select(dataset, w0, tie_break, scores_csv, out_dir, **hyper):
    """Find the best single point to delete; exit 3 if none clears delta.

    Prints selection.json's head, the document without its scores.  The
    scores are encoded only into the files: --scores-csv, selection.json
    and the manifest are written in that order, before the head, so a
    head on stdout means that every file is whole.
    """
    ds, hp, w = _load_inputs(dataset, w0, hyper)
    from .core import _write_csv
    from .selector import find_perfect_deleted_point
    from .snr import membership_advantage
    result = find_perfect_deleted_point(ds, w, hp, tie_break=tie_break)
    if scores_csv is not None:
        result["advantage"] = membership_advantage(result["d_v"], hp.alpha)
        _write_csv(scores_csv, _SCORES_CSV_HEADER,
                   [result[key] for key in _SCORES_CSV_HEADER])
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "selection.json", "w", encoding="utf-8") as fh:
            fh.writelines(_selection_chunks(result))
        _write_manifest(out_dir, ["selection.json"])
    _emit(json.dumps(_selection_head(result), indent=2) + "\n")
    if result["best"] is None:
        sys.exit(EXIT_NO_PERFECT_POINT)


def _selection_head(result) -> dict:
    """selection.json of find_perfect_deleted_point's ``result`` without
    its scores: format_version, target and ``best``, the selected row
    keyed by _SELECTION_COLUMNS, or None."""
    best = result["best"]
    if best is not None:
        best = {key: result[key][best].item() for key in _SELECTION_COLUMNS}
    return {"format_version": SELECTION_JSON_FORMAT_VERSION,
            "target": result["target"], "best": best}


def _selection_chunks(result):
    """selection.json of ``result`` in the pieces of _json_chunks: its
    head, then its _SELECTION_COLUMNS, one row per point.  A row's
    distance is abs(eps_v), and its advantage is written to --scores-csv
    alone."""
    from .core import _json_chunks
    return _json_chunks(_selection_head(result), "scores",
                        {key: result[key] for key in _SELECTION_COLUMNS})


def _bounds_chunks(ds, w0, hp, b_floor):
    """bounds.json in the pieces of _json_chunks: one row per point, in
    dataset order.  The rows are computed before the first piece."""
    from .bounds import bounds_arrays
    from .core import _json_chunks
    from .snr import scan_arrays
    arrays = scan_arrays(ds, w0, hp)
    cols = bounds_arrays(arrays, hp.alpha, b=b_floor)
    head = {"format_version": BOUNDS_FORMAT_VERSION,
            "target": arrays["target"]}
    return _json_chunks(head, "rows", {
        "index": arrays["index"], "lower": cols["lower"],
        "upper": cols["upper"], "actual_delta": cols["actual_delta"],
        "contained_A": cols["contained_a"],
        "contained_B": cols["contained_b"],
        "privacy_floor": cols["privacy_floor"]})


@_command(_DATASET_OPTIONS | {"--b-floor": dict(
    type=float, help="Use the norm-floor bound variant with this B.")}
    | _out("bounds.json"))
def bounds(dataset, w0, b_floor, out_dir, **hyper):
    """Per-point risk-change interval and privacy floor, as JSON.

    The per-point interval divides by ||x_v||, so a dataset with a zero
    feature vector exits 2, naming that point's id, before any row is
    computed or written.  With --b-floor, B must be positive and at most
    the smallest feature norm.
    """
    ds, hp, w = _load_inputs(dataset, w0, hyper)
    _stream(_bounds_chunks(ds, w, hp, b_floor), out_dir, "bounds.json")
    if out_dir is not None:
        _write_manifest(out_dir, ["bounds.json"])


@_command(_DATASET_OPTIONS | {
    "--protocol": dict(required=True,
                       choices=[p.replace("_", "-") for p in PROTOCOLS]),
    "--steps": dict(type=int, default=1),
    "--iterations": dict(type=int, default=100),
    "--bins": dict(type=int, default=30)}
    | _TIE_BREAK | _out("weights.csv, summary.json", required=True))
def simulate(dataset, w0, protocol, steps, iterations, bins, tie_break,
             out_dir, **hyper):
    """Run a multi-step deletion protocol; write weights.csv + summary.json."""
    ds, hp, w = _load_inputs(dataset, w0, hyper)
    import numpy as np
    from .core import _write_csv
    from .sim import StepConfig, run_protocol
    cfg = StepConfig(protocol=protocol.replace("-", "_"), steps=steps,
                     iterations=iterations, hp=hp, w0=w, bins=bins,
                     tie_break=tie_break)
    result = run_protocol(cfg, ds)
    out_dir.mkdir(parents=True, exist_ok=True)

    weights_path = out_dir / "weights.csv"
    _write_csv(weights_path,
               ["iteration"] + [f"w{j}" for j in range(ds.dim)],
               [np.arange(iterations), *result.final_weights.T])

    config_doc = {
        "dataset": str(dataset), "protocol": cfg.protocol,
        "steps": steps, "iterations": iterations, "bins": bins,
        "gamma": hp.gamma, "sigma": hp.sigma, "alpha": hp.alpha,
        "delta": hp.delta, "w0": w.tolist(), "seed": hp.seed,
        "snr_convention": hp.snr_convention, "tie_break": tie_break,
    }
    summary_doc = {
        "format_version": SUMMARY_FORMAT_VERSION, "config": config_doc,
        "mean": result.mean.tolist(), "variance": result.variance.tolist(),
        "histogram": [{"edges": edges.tolist(), "counts": counts.tolist()}
                      for counts, edges in result.histograms],
        "deletions_log": result.deletions_log,
    }
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary_doc, indent=2) + "\n",
                            encoding="utf-8")

    _write_manifest(out_dir, [weights_path.name, summary_path.name])
    _emit(f"{summary_path}\n")


def _is_number(v) -> bool:
    # json reads NaN, Infinity and an out-of-range 1e999 as floats
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, int) and not isinstance(v, bool)


def _summary_row(path: Path) -> tuple:
    """(steps, protocol, mean, variance) of a simulate summary.json.

    steps is an int >= 1, protocol one of PROTOCOLS, and mean and variance
    are non-empty lists of finite numbers of one length; bools are not
    numbers.
    """
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        cfg = doc["config"]
        row = (cfg["steps"], cfg["protocol"], doc["mean"], doc["variance"])
    except (ValueError, KeyError, TypeError) as exc:
        raise DelpointError(
            f"{path}: not a simulate summary.json: {exc}") from None
    steps, protocol, mean, variance = row
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        problem = f"steps must be an int >= 1, got {steps!r}"
    elif protocol not in PROTOCOLS:
        problem = f"protocol must be one of {PROTOCOLS}, got {protocol!r}"
    elif not all(isinstance(v, list) and v and all(map(_is_number, v))
                 for v in (mean, variance)):
        problem = "mean and variance must be non-empty lists of numbers"
    elif len(mean) != len(variance):
        problem = f"mean has {len(mean)} entries, variance {len(variance)}"
    else:
        return row
    raise DelpointError(f"{path}: not a simulate summary.json: {problem}")


@_command({"summaries": dict(nargs="+", type=_INPUT),
           "--seed": dict(type=_seed, default=0,
                          help="Recorded in the manifest (no RNG use)."),
           **_out("report.md")})
def report(summaries, seed, out_dir):
    """Render a protocol-by-steps table from simulate summary files."""
    rows = [_summary_row(path) for path in summaries]
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = ["| steps | protocol | mean | variance |",
             "|------:|----------|------|----------|"]
    for steps, protocol, mean, variance in rows:
        mean_s = ", ".join(repr(v) for v in mean)
        var_s = ", ".join(repr(v) for v in variance)
        lines.append(f"| {steps} | {protocol} | {mean_s} | {var_s} |")
    _stream(["\n".join(lines) + "\n"], out_dir, "report.md")
    if out_dir is not None:
        _write_manifest(out_dir, ["report.md"])


def _parse(prog: str, description: str, options: dict, argv: list[str]):
    """The ``options`` (flag -> add_argument keywords) in ``argv``, by
    name, in their order.  argparse exits 0 after --help and 2 on a usage
    error.  --help shows each default that is not None."""
    parser = argparse.ArgumentParser(prog=prog, description=description,
                                     add_help=False, allow_abbrev=False)
    parser.add_argument("--help", action="help",
                        help="Show this message and exit.")
    for flag, kwargs in options.items():
        if kwargs.get("default") is not None:
            kwargs = kwargs | {"help": f"{kwargs.get('help', '')} "
                                       "(default: %(default)s)"}
        parser.add_argument(flag, **kwargs)
    # an option takes the next word as its value, whatever it begins
    # with: --delta -1e-3 is --delta=-1e-3, not two options
    words = []
    for word in argv:
        if words and words[-1] in options and words[-1][0] == "-":
            word = f"{words.pop()}={word}"
        words.append(word)
    return vars(parser.parse_args(words))


def main(args=None, standalone_mode=True):
    """Run the command that ``args`` (default sys.argv[1:]) names,
    building only that command's parser.

    A command that ends with 0 returns; any other code raises
    SystemExit(code), a usage error's 2 included.  Once the options are
    parsed, library errors map to exit codes here alone: ArithmeticError
    (NumericOverflow is one) to 4, DelpointError and OSError to 2.
    ``standalone_mode`` does nothing; it exists only for
    perfbench/probe.py, which calls ``main(args, standalone_mode=False)``.
    """
    argv = sys.argv[1:] if args is None else list(args)
    if not argv or argv[0] not in _COMMANDS:  # exits, 0 after --help
        _parse("delpoint", "Deleted-point analysis for one-step noisy SGD "
               "on linear regression; COMMAND --help lists its options.",
               {"--version": dict(action="version",
                                  version=f"delpoint, version {__version__}"),
                "command": dict(choices=_COMMANDS, metavar="COMMAND",
                                help=", ".join(_COMMANDS))}, argv[:1])
    fn, options = _COMMANDS[argv[0]]
    _running.update(command=argv[0], config=_parse(
        f"delpoint {argv[0]}", fn.__doc__, options, argv[1:]))
    try:
        fn(**_running["config"])
    except ArithmeticError as exc:  # NumericOverflow is a DelpointError too
        print(f"numeric error: {exc}", file=sys.stderr)
        sys.exit(EXIT_NUMERIC)
    except (DelpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_INPUT)


def run():
    """Process entry of the ``delpoint`` script and ``python -m
    delpoint.cli``: ``main``, then ``gc.freeze()`` however it ends.

    Everything alive when the command ends (numpy, the package,
    what the command loaded) moves to the collector's permanent
    generation, so the full collections at interpreter shutdown do not
    walk it, which was most of a command's exit time (see README).  The
    exit code, atexit handlers and the flush of stdout and stderr stay the
    interpreter's, and the commands' files are closed by then.  ``main``
    itself never freezes, so callers in a long-lived process (tests,
    perfbench's probe) keep their collector as it was.
    """
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
