#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the delpoint CLI.

    python3 perfbench/run.py --workload select-large --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --seconds 36      # every workload, both modes
    python3 perfbench/run.py --smoke           # the benchmark's own test

Run from the repository root (any directory works; paths are resolved from
this file).  The package is imported from ``src/`` through PYTHONPATH.

``--trace 0`` runs the workload's CLI commands as child processes, each
round followed by one fresh probe process per library command that times
set-up and the library path, and reports the end-to-end metrics.  Each
of them runs on the CPU that is fastest just before it starts, while a
thread samples that CPU's speed; times are reported in reference seconds
(see SpeedSampler).  ``--trace 1`` runs one probe that traces the
package's public functions in process and reports the per-layer metrics.
Inputs come from ``--seed``; every output is checked against an
independent recomputation.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.  Details (samples,
environment, inputs, failures) go to ``.perfbench_out/results/``.
See README.md in this directory for the metric -> layer -> workload map.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from inputs import Input, make_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PARAMS = checks.Params()
PROTOCOLS = ("perfect-delete", "random-delete", "no-delete")
# One BLAS thread (never more than nproc): the workloads have d <= 3, so
# threads only add scheduling noise on a small machine.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0   # a run must end within 180 s
MIN_ROUNDS = 2       # median of at least two rounds per run
SETUP_PROBES = 3     # extra set-up-only probes per run, so setup_s has >= 5
# Time metrics are reported in reference seconds (see SpeedSampler).
SPIN_LOOPS = 3000        # the speed loop: about 0.25 ms
SPIN_EVERY_S = 0.05
SPIN_REF_S = 0.00025
# When a neighbour slows the CPU, the CLI slows more than the speed loop:
# over 30 runs (3 workloads x seeds 101-110) on a shared 2-core Xeon VM,
# log(sample seconds) against log(mean loop time during the sample) had
# slopes 1.45-1.8 (correlation 0.86-0.99) on every workload.
SPEED_EXPONENT = 1.5


@dataclass(frozen=True)
class Size:
    n: int
    d: int
    steps: int = 0
    iterations: int = 0


FULL = {"select-large": Size(200_000, 3),
        "bounds-mid": Size(10_000, 3),
        "simulate-paired": Size(200, 1, steps=50, iterations=100)}
SMOKE = {"select-large": Size(2_000, 3),
         "bounds-mid": Size(300, 3),
         "simulate-paired": Size(60, 1, steps=5, iterations=20)}

END_TO_END = {"wall_s": "s", "items_per_s": "1/s", "lib_s": "s",
              "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "1"}

_UNITS = {"self_s": "s", "calls": "count", "errors": "count", "bytes": "B",
          "rows": "count", "elems": "count", "bytes_computed": "B",
          "flops_computed": "flop"}
_LAYER_FIELDS = [
    ("cli", "self_s errors"),
    ("core.load_csv", "self_s bytes errors"),
    ("core.from_arrays", "self_s errors"),
    ("core.delete_point", "self_s calls errors"),
    ("kernels.scan_norms",
     "self_s calls rows bytes_computed flops_computed errors"),
    ("gauss.phi", "self_s calls elems errors"),
    ("gauss.phi_inv", "self_s calls errors"),
    ("gauss.make_rng", "self_s errors"),
    ("gauss.sample_gaussian", "self_s errors"),
    ("snr.scan_arrays", "self_s calls errors"),
    ("selector.find_perfect_deleted_point", "self_s errors"),
    ("selector.select_position", "self_s calls errors"),
    ("selector.selection_to_json", "self_s bytes errors"),
    ("bounds.risk_change_bounds", "self_s calls errors"),
    ("bounds.risk_change_bounds_floor", "self_s errors"),
    ("bounds.privacy_floor", "self_s errors"),
    ("lossgrad.risk", "self_s calls errors"),
    ("lossgrad.point_loss", "self_s errors"),
    ("lossgrad.risk_grad", "self_s errors"),
    ("sim.run_protocol", "self_s errors"),
    ("sim.sgd_step", "self_s calls errors"),
    ("sim.summarize", "self_s errors"),
]
PER_LAYER = {f"{fn}.{field}": _UNITS[field]
             for fn, fields in _LAYER_FIELDS for field in fields.split()}
PER_LAYER.update({"sim.perfect_delete.skip_ratio": "1",
                  "trace.untraced_lib_s": "s", "trace.traced_lib_s": "s",
                  "trace.overhead_s": "s", "trace.spans": "count"})


class RunFailed(Exception):
    """The benchmark itself could not complete a measurement."""


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload and the check of what it wrote."""

    label: str
    args: list[str]
    artifacts: list[Path]
    check: Callable[[], list[str]]


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _check_select(path, inp):
    return checks.check_select(_load_json(path), inp.X, inp.y, PARAMS)


def _check_bounds(path, inp, b_floor):
    return checks.check_bounds(_load_json(path), inp.X, inp.y, PARAMS, b_floor)


def _check_simulate(out, proto, inp, size):
    return checks.check_simulate(
        _load_json(out / "summary.json"),
        (out / "weights.csv").read_text(encoding="utf-8"),
        proto.replace("-", "_"), inp.X, inp.y, PARAMS, size.steps,
        size.iterations)


def _check_report(path, summaries):
    docs = {}
    for summary in summaries:
        doc = _load_json(summary)
        docs[doc["config"]["protocol"]] = doc
    return checks.check_report(path.read_text(encoding="utf-8"), docs)


def plan(workload: str, inp: Input, out: Path, size: Size):
    """Command steps, library-path argument lists and items per sequence."""
    base = ["--dataset", str(inp.path), *PARAMS.cli_args()]
    if workload == "select-large":
        path = out / "select" / "selection.json"
        steps = [Step("select", ["select", *base, "--out", str(path.parent)],
                      [path], functools.partial(_check_select, path, inp))]
        return steps, [["select", *base]], size.n
    if workload == "bounds-mid":
        # half the smallest feature norm is a valid floor with margin
        b_floor = 0.5 * float(np.linalg.norm(inp.X, axis=1).min())
        variants = [("bounds", [], None),
                    ("bounds-floor", ["--b-floor", repr(b_floor)], b_floor)]
        steps = []
        for label, extra, floor in variants:
            path = out / label / "bounds.json"
            steps.append(Step(
                label, ["bounds", *base, *extra, "--out", str(path.parent)],
                [path], functools.partial(_check_bounds, path, inp, floor)))
        return steps, [["bounds", *base, *extra] for _, extra, _ in variants], \
            2 * size.n
    if workload == "simulate-paired":
        sim = ["--steps", str(size.steps), "--iterations", str(size.iterations),
               "--seed", "1"]
        steps, summaries = [], []
        for proto in PROTOCOLS:
            d = out / proto
            summaries.append(d / "summary.json")
            steps.append(Step(
                proto, ["simulate", *base, "--protocol", proto, *sim,
                        "--out", str(d)],
                [d / "summary.json", d / "weights.csv"],
                functools.partial(_check_simulate, d, proto, inp, size)))
        report = out / "report" / "report.md"
        steps.append(Step(
            "report", ["report", *map(str, summaries), "--out",
                       str(report.parent)],
            [report, *summaries],
            functools.partial(_check_report, report, summaries)))
        lib_out = out.parent / "lib"
        lib = [["simulate", *base, "--protocol", proto, *sim,
                "--out", str(lib_out / proto)] for proto in PROTOCOLS]
        return steps, lib, len(PROTOCOLS) * size.steps * size.iterations
    raise ValueError(f"unknown workload {workload!r}")


def verify(step: Step, verified: dict[str, set[str]]) -> list[str]:
    """Check a step's artifacts; byte-identical repeats of a passed output
    are not parsed again."""
    digest = hashlib.sha256()
    for path in step.artifacts:
        if not path.is_file():
            return [f"missing artifact {path.name}"]
        digest.update(path.read_bytes())
    key = digest.hexdigest()
    if key in verified[step.label]:
        return []
    problems = step.check()
    if not problems:
        verified[step.label].add(key)
    return problems


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def run_cli(args: list[str], err_path: Path, timeout: float):
    """Run one CLI command; returns (exit code, wall seconds, max RSS KiB)."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "delpoint.cli", *args],
                                stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), os.kill,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            # wait4 gives this child's own rusage, so probe processes
            # never mix into the CLI's peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


def run_probe(spec: dict, work: Path, timeout: float) -> dict:
    spec_path = work / "probe.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(spec_path)],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"probe ({spec['mode']}) timed out") from None
    if proc.returncode != 0:
        raise RunFailed(f"probe ({spec['mode']}) exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Attempted and failed operations, with the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"{label}: {problems[0]}")


def _step_problems(step, code, err_path, verified):
    if code != 0:
        tail = err_path.read_text(errors="replace").strip()[-500:]
        return [f"exit code {code}: {tail}"]
    return verify(step, verified)


def _keep_going(rounds, min_rounds, start, round_start, seconds):
    """Start another round only if it should end within ``seconds``."""
    now = time.perf_counter()
    return rounds < min_rounds or (now - start) + (now - round_start) <= seconds


class SpeedSampler:
    """Samples how fast this CPU runs right now, while children run on it.

    A thread of this process (which shares one CPU with the children it
    starts) wakes every SPIN_EVERY_S, times a fixed pure-Python loop of
    about a quarter millisecond and keeps (end time, duration).  On a
    shared host a CPU is slowed by other tenants' load in spells that
    switch within seconds, and a child's wall time follows.  ``scale``
    turns seconds measured over an interval into reference seconds,
    seconds at the speed at which the loop takes SPIN_REF_S: it
    multiplies by SPIN_REF_S over the mean loop time in the interval,
    raised to SPEED_EXPONENT.  The loop takes under 1% of the CPU.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(SPIN_EVERY_S):
            took = speed_loop()
            self.samples.append((time.perf_counter(), took))

    def scale(self, start: float, end: float) -> float:
        # an interval shorter than a few wake-ups borrows its neighbours'
        pad = max(0.0, 4 * SPIN_EVERY_S - (end - start)) / 2
        spins = [d for t, d in self.samples if start - pad <= t <= end + pad]
        if not spins:
            raise RunFailed("no speed samples: the sampler thread stalled")
        # a loop preempted by the child is not a speed reading
        cutoff = 3 * statistics.median(spins)
        mean = statistics.fmean(d for d in spins if d <= cutoff)
        return (SPIN_REF_S / mean) ** SPEED_EXPONENT


def measure_end_to_end(workload, inp, work, size, seconds, deadline,
                       min_rounds):
    steps, lib, items = plan(workload, inp, work / "cli", size)
    spec = {"mode": "lib", "datasets": [str(inp.path)], "lib": lib}
    raw, samples = defaultdict(list), defaultdict(list)
    tally, verified = Tally(), defaultdict(set)

    def probe_once(speed, probe_spec):
        """One probe; records its set-up time and returns (library
        seconds, library reference seconds, probe result)."""
        use_fastest_cpu()
        spawned = time.perf_counter()
        probe = run_probe(probe_spec, work, deadline - time.perf_counter())
        raw["setup_s"].append(probe["setup_s"])
        samples["setup_s"].append(
            probe["setup_s"] * speed.scale(spawned, probe["setup_end"]))
        if "lib_s" not in probe:
            return 0.0, 0.0, probe
        return (probe["lib_s"], probe["lib_s"] * speed.scale(
            probe["lib_start"], probe["lib_end"]), probe)

    start = time.perf_counter()
    with SpeedSampler() as speed:
        for _ in range(SETUP_PROBES):
            probe_once(speed, dict(spec, mode="setup"))
        while True:
            round_start = time.perf_counter()
            wall, wall_ref, rss = 0.0, 0.0, 0
            for step in steps:
                err_path = work / "stderr.txt"
                use_fastest_cpu()
                before = time.perf_counter()
                code, elapsed, maxrss = run_cli(
                    step.args, err_path, deadline - time.perf_counter())
                wall += elapsed
                wall_ref += elapsed * speed.scale(before, time.perf_counter())
                rss = max(rss, maxrss)
                tally.record(step.label, _step_problems(step, code, err_path,
                                                        verified))
            raw["wall_s"].append(wall)
            samples["wall_s"].append(wall_ref)
            samples["peak_rss_mb"].append(rss / 1024.0)
            # one probe per library command keeps each probe short
            lib_s, lib_ref = 0.0, 0.0
            for args in lib:
                one_raw, one_ref, probe = probe_once(speed,
                                                     dict(spec, lib=[args]))
                lib_s += one_raw
                lib_ref += one_ref
            raw["lib_s"].append(lib_s)
            samples["lib_s"].append(lib_ref)
            if not _keep_going(len(samples["wall_s"]), min_rounds, start,
                               round_start, seconds):
                break
    med = {k: statistics.median(v) for k, v in samples.items()}
    metrics = {
        "wall_s": med["wall_s"],
        "items_per_s": items / med["wall_s"],
        "lib_s": med["lib_s"],
        "setup_s": med["setup_s"],
        "peak_rss_mb": med["peak_rss_mb"],
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    spins = [d for _, d in speed.samples]
    detail = {"samples": dict(samples), "raw_samples": dict(raw),
              "raw_medians": {k: statistics.median(v) for k, v in raw.items()},
              "speed_loop_s": {"count": len(spins),
                               "median": statistics.median(spins),
                               "min": min(spins), "max": max(spins)},
              "items_per_sequence": items, "cli_invocations": tally.attempted}
    return metrics, tally, probe["backend"], detail


def measure_traced(workload, inp, work, size, seconds, deadline):
    traced_out = work / "trace" / "r{round}"
    steps, lib, _ = plan(workload, inp, traced_out, size)
    spec = {"mode": "lib", "datasets": [str(inp.path)], "lib": lib}
    untraced = run_probe(spec, work, deadline - time.perf_counter())
    spec.update(mode="trace", sequence=[s.args for s in steps],
                seconds=max(seconds - untraced["setup_s"] - untraced["lib_s"], 0))
    probe = run_probe(spec, work, deadline - time.perf_counter())
    tally, verified = Tally(), defaultdict(set)
    codes = iter(probe["exit_codes"])
    for r in range(probe["rounds"]):
        for step in plan(workload, inp, work / "trace" / f"r{r}", size)[0]:
            code = next(codes)
            problems = ([f"exit code {code}"] if code != 0
                        else verify(step, verified))
            tally.record(step.label, problems)
    rounds = probe["rounds"]
    layers = probe["layers"]
    metrics = {}
    for name in PER_LAYER:
        fn, _, field = name.rpartition(".")
        metrics[name] = layers.get(fn, {}).get(field, 0) / rounds
    metrics["cli.errors"] += sum(c != 0 for c in probe["exit_codes"]) / rounds
    protocols = layers.get("sim.run_protocol", {})
    steps_taken = protocols.get("perfect_delete_steps", 0)
    metrics["sim.perfect_delete.skip_ratio"] = (
        protocols.get("perfect_delete_skips", 0) / steps_taken
        if steps_taken else 0)
    metrics["trace.untraced_lib_s"] = untraced["lib_s"]
    metrics["trace.traced_lib_s"] = probe["lib_s"]
    metrics["trace.overhead_s"] = probe["lib_s"] - untraced["lib_s"]
    metrics["trace.spans"] = probe["spans"] / rounds
    detail = {"rounds": rounds, "all_functions": {
        fn: {k: v / rounds for k, v in vals.items()}
        for fn, vals in layers.items()}}
    return metrics, tally, probe["backend"], detail


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


CPUS = sorted(os.sched_getaffinity(0))[:8] if hasattr(
    os, "sched_setaffinity") else []


def speed_loop(loops: int = SPIN_LOOPS) -> float:
    """Seconds for a fixed pure-Python loop: how fast this CPU is now."""
    start = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i * i % 7
    return time.perf_counter() - start


def use_fastest_cpu() -> None:
    """Move every thread of this process, and so the next child it starts,
    to the CPU on which the speed loop runs fastest right now.

    On a shared host each CPU is slowed by other tenants' load on its own,
    in spells of seconds to minutes.  The speed sampler's thread moves
    too, so that it samples the CPU the children run on.
    """
    if len(CPUS) < 2:
        return
    speed = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(speed_loop(30 * SPIN_LOOPS) for _ in range(2))
    best = {min(speed, key=speed.get)}
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), best)
        except ProcessLookupError:   # a thread that has just ended
            pass


def environment(backend: str | None) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "backend": backend, "nproc": os.cpu_count(),
            "cpus_used": CPUS,
            "cpu_model": cpu_model(), "blas_env": BLAS_ENV}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes=FULL, min_rounds: int = MIN_ROUNDS):
    """Generate inputs, measure, check; returns (result, details)."""
    deadline = time.perf_counter() + DEADLINE_S
    size = sizes[workload]
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inp = make_input(work / "input.csv", size.n, size.d, seed)
        # compile the package's bytecode and warm the file cache once
        subprocess.run([sys.executable, "-c", "import delpoint.cli"],
                       env=child_env(), cwd=ROOT, check=True, timeout=60)
        if trace:
            metrics, tally, backend, detail = measure_traced(
                workload, inp, work, size, seconds, deadline)
            units = PER_LAYER
        else:
            metrics, tally, backend, detail = measure_end_to_end(
                workload, inp, work, size, seconds, deadline, min_rounds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": int(trace), "environment": environment(backend),
               "inputs": [inp.describe()], "failures": tally.messages,
               **detail, "result": result}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=2) + "\n", encoding="utf-8")
    return result, details


def print_table(workload: str, result: dict, details: dict) -> None:
    print(f"== {workload} seed={details['seed']} trace={details['trace']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    selfs = {k: m["value"] for k, m in result["metrics"].items()
             if k.endswith(".self_s")}
    if selfs:
        print(f"  largest self time: {max(selfs, key=selfs.get)}")
    for msg in details["failures"][:5]:
        print(f"  FAILED {msg}")


# --- smoke test -----------------------------------------------------------

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _corrupt(path: Path) -> None:
    """Perturb one value of an artifact so that its check must fail."""
    if path.suffix == ".md":
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("| no_delete | ", "| no_delete | 9", 1),
                        encoding="utf-8")
        return
    doc = _load_json(path)
    if "scores" in doc:
        doc["scores"][1]["d_v"] *= 1.0 + 1e-6
    elif "rows" in doc:
        doc["rows"][1]["lower"] += 1e-6 * (1.0 + abs(doc["rows"][1]["lower"]))
    elif doc["config"]["protocol"] == "no_delete":
        doc["mean"][0] += 1.0
    else:
        log = doc["deletions_log"][0]
        log[1] = log[0]
    path.write_text(json.dumps(doc), encoding="utf-8")


def smoke() -> None:
    """All workloads at tiny n: metrics match BENCHMARK.json, checks bite."""
    spec = _load_json(ROOT / "BENCHMARK.json")
    declared = {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    _require(declared["end_to_end"] == END_TO_END,
             "BENCHMARK.json end_to_end differs from END_TO_END")
    _require(declared["per_layer"] == PER_LAYER,
             "BENCHMARK.json per_layer differs from PER_LAYER")
    _require(sorted(w["name"] for w in spec["workloads"]) == sorted(FULL),
             "BENCHMARK.json workloads differ from FULL")
    for workload in FULL:
        for trace in (False, True):
            result, _ = run_workload(workload, 7, 0.0, trace, SMOKE, 1)
            _require(result["correct"] and result["attempted"] > 0,
                     f"{workload} trace={trace}: {result}")
            want = declared["per_layer" if trace else "end_to_end"]
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            _require(got == want, f"{workload}: metrics {sorted(got)}")
            _require(all(isinstance(m["value"], (int, float))
                         for m in result["metrics"].values()),
                     f"{workload}: a metric value is not a number")
        work = OUT / f"smoke-{workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            size = SMOKE[workload]
            inp = make_input(work / "input.csv", size.n, size.d, 7)
            steps = plan(workload, inp, work / "cli", size)[0]
            for step in steps:
                code, _, _ = run_cli(step.args, work / "stderr.txt", 60.0)
                _require(code == 0 and not step.check(),
                         f"{workload} {step.label}: clean output rejected")
            for step in steps:
                original = step.artifacts[0].read_bytes()
                _corrupt(step.artifacts[0])
                _require(bool(step.check()),
                         f"{workload} {step.label}: corrupted output accepted")
                step.artifacts[0].write_bytes(original)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"smoke: {workload} ok")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(FULL))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "delpoint" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'delpoint'}",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            smoke()
            return 0
        workloads = [args.workload] if args.workload else list(FULL)
        traces = [bool(args.trace)] if args.trace is not None else [False, True]
        results = {}
        for workload in workloads:
            for trace in traces:
                result, details = run_workload(workload, args.seed,
                                               args.seconds, trace)
                print_table(workload, result, details)
                results[(workload, trace)] = result
    except (RunFailed, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{k}": m for (w, _), r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
