"""In-process measurements, run by run.py in a fresh interpreter.

Usage: python probe.py SPEC_JSON   (prints one JSON object on stdout)

The spec names the workload's datasets, the CLI argument lists of its
library path (``lib``) and of its full command sequence (``sequence``),
and the mode:

* ``setup`` time ``import delpoint.cli`` plus ``load_csv`` of every
            dataset, measured from the start of this script.
* ``lib``   the same, then one untraced pass over the library path.
* ``trace`` the same, with the tracer installed after set-up, so the
            library-path time is traced (its difference from a ``lib``
            probe's is the tracer's overhead); then run the command
            sequence traced until ``seconds`` have passed since start and
            report per-function spans and counters.

Times are also reported as perf_counter readings (``setup_end``,
``lib_start``, ``lib_end``); on Linux that clock is shared by all
processes, so run.py can match them with its own speed samples.

The library path runs the real CLI commands in this process with
``load_csv`` served from the datasets already loaded and stdout sent to
the null device, so it covers everything from a loaded Dataset to the
serialized artifact and excludes start-up, import and CSV parsing.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def run_cli(cli, args):
    """One in-process CLI call; returns its exit code."""
    try:
        cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def timed_lib(cli, lib_commands, loaded):
    """Start and end (perf_counter) of one pass over the library path,
    with loads served."""
    real = cli.load_csv
    cli.load_csv = lambda path: loaded[str(path)]
    try:
        start = time.perf_counter()
        codes = [run_cli(cli, args) for args in lib_commands]
        end = time.perf_counter()
    finally:
        cli.load_csv = real
    if any(codes):
        raise RuntimeError(f"library path exit codes {codes}")
    return start, end


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    import delpoint
    import delpoint.cli as cli
    t_import = time.perf_counter()
    loaded = {path: cli.load_csv(path) for path in spec["datasets"]}
    t_setup = time.perf_counter()
    result = {"import_s": t_import - T0, "setup_s": t_setup - T0,
              "setup_end": t_setup,
              "backend": delpoint.active_backend()}
    if spec["mode"] == "setup":
        print(json.dumps(result))
        return

    if spec["mode"] == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        lib_start, lib_end = timed_lib(cli, spec["lib"], loaded)
        result.update(lib_s=lib_end - lib_start, lib_start=lib_start,
                      lib_end=lib_end)
        if spec["mode"] == "trace":
            tracer.reset()
            traced_cli = tracer.wrap("cli", run_cli)
            codes, rounds = [], 0
            while True:
                t_round = time.perf_counter()
                for args in spec["sequence"]:
                    codes.append(traced_cli(
                        cli, [a.replace("{round}", str(rounds)) for a in args]))
                rounds += 1
                now = time.perf_counter()
                if now - T0 + (now - t_round) > spec["seconds"]:
                    break
            result.update(rounds=rounds, exit_codes=codes,
                          spans=tracer.spans(), layers=tracer.summary())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
