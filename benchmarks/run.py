"""Benchmark of the misspec-krige command line, run in-process.

Usage:
    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload is a closed loop with one caller: an iteration makes every
invocation of ``misspec_krige.cli.main(["run" | "check", <config>])`` listed in
``workloads.py``, from a single thread, and every output is checked against
the stored reference (``verify.py``).  ``MISSPEC_KRIGE_THREADS`` is left as
the environment gives it (the library's default pool), but the BLAS thread
variables are set to 1 before the library is imported: the pool's workers
already use every core of a small host, and BLAS threads on top of them make
the timings follow the scheduler rather than the program.  With
``--blas-threads env`` the BLAS variables are left as the environment gives
them instead.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` measures the
per-layer metrics: after an untraced pass it repeats the loop with the
outside-in instrumentation of ``instrument.py`` installed, then runs the
workload untraced in two child processes: one with one pool worker and one
BLAS thread (``serial.iter_s.p50``), and one with the BLAS thread variables as
the environment gives them (``blas_env.iter_s.p50``), which shows what BLAS
threads on top of the pool cost.  Per-layer values are per traced
iteration, except the ``_frac`` ratios, ``ratios.level_concurrency`` and
``cli.csv_bytes_differ`` (the number of iterations of the whole run whose CSV
bytes differ from the reference).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are those
``BENCHMARK.json`` declares for the mode.  The lines before it give every
metric measured, with its unit and sample count, and the environment.
Spans of the traced run are written to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from verify import Checker

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

#: Cold starts are measured in the run's own process and in fresh
#: interpreters, at least one, which get this share of --seconds; setup_s and
#: first_iter_s are medians over all of them.  Warm iterations fill the rest.
COLD_SHARE = 0.5
#: the reference children must end inside the run's own time limit
CHILD_TIMEOUT_S = 150
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ONE_BLAS_THREAD = {name: "1" for name in BLAS_VARIABLES}
#: the environment the benchmark was started with, before it sets anything
GIVEN_ENV = dict(os.environ)
RECORD_ROWS = 9   # rows of ratios.csv per (n, target) record


class Runner:
    """Runs one workload's invocations through ``misspec_krige.cli.main``."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.invocations = workloads.invocations(workload, seed)
        self.argvs = workloads.write_configs(self.invocations, workdir)
        workloads.build_scenarios(self.invocations)
        self.checker = Checker(workload)
        self.attempted = 0
        self.failed = 0
        self.csv_bytes_differ = 0
        self.records = 0          # ratio records of the last iteration
        self.outputs: dict[str, str] = {}

    def iteration(self) -> float:
        """Make every invocation once; return the seconds spent inside them."""
        from misspec_krige import cli

        elapsed = 0.0
        differ = False
        records = 0
        for inv, argv in zip(self.invocations, self.argvs):
            self.attempted += 1
            stdout = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(argv)
            except Exception as exc:  # counted as a failed invocation, run goes on
                code = f"raised {exc!r}"
            elapsed += time.perf_counter() - start
            if code != 0:
                self._fail(inv, [f"exit {code}"])
                continue
            if inv.command == "run":
                with open(os.path.join(argv[3], "ratios.csv"), encoding="utf-8",
                          newline="") as fh:
                    output = fh.read()
                records += (output.count("\n") - 1) // RECORD_ROWS
            else:
                output = stdout.getvalue()
            self.outputs[inv.key] = output
            problems, bytes_differ = self.checker.check(inv, output)
            differ |= bytes_differ and inv.command == "run"
            if problems:
                self._fail(inv, problems)
        self.csv_bytes_differ += differ
        self.records = records
        return elapsed

    def _fail(self, inv, problems: list[str]) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {inv.command} {inv.key}: {'; '.join(problems[:3])}",
                  file=sys.stderr)


def measure(runner: Runner, seconds: float) -> list[float]:
    """Warm iterations for ``seconds``, at least one: stops before the next
    iteration, timed like the last, would pass the deadline."""
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() + samples[-1] <= deadline:
        samples.append(runner.iteration())
    return samples


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with ten samples beyond it; with
    fewer than 21 samples, the highest one that still has half of the others
    beyond it, so the tail never reads below the median.
    Returns (value, percentile, samples beyond)."""
    ordered = sorted(samples)
    beyond = min(10, (len(ordered) - 1) // 2)
    return (ordered[len(ordered) - 1 - beyond],
            100.0 * (len(ordered) - beyond) / len(ordered), beyond)


def cold_start(workload: str, seed: int, workdir: str) -> tuple[Runner, float, float]:
    """Set up in this process and run the first iteration.  Returns the
    runner, the set-up seconds (library import, configs and scenarios; only
    a cold start when the library was not imported before) and the seconds
    of the first iteration."""
    start = time.perf_counter()
    runner = Runner(workload, seed, workdir)
    setup_s = time.perf_counter() - start
    return runner, setup_s, runner.iteration()


def cold_probe(workload: str, seed: int, workdir: str) -> dict:
    """``cold_start`` in a fresh interpreter (``cold_probe.py``)."""
    probe_dir = tempfile.mkdtemp(prefix="probe-", dir=workdir)
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "cold_probe.py"), workload, str(seed), probe_dir],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def environment() -> dict:
    import numpy as np
    import scipy
    from misspec_krige import ratios

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "pool_workers": ratios._default_workers(),
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "longdouble_digits": int(np.finfo(np.longdouble).precision),
    }


def end_to_end(args, workdir: str):
    start = time.perf_counter()
    deadline = start + args.seconds
    runner, setup_s, first_s = cold_start(args.workload, args.seed, workdir)
    cold_s = time.perf_counter() - start
    # Cold probes and warm iterations alternate so that both sample the whole
    # run: a probe goes next while probes have had less than COLD_SHARE of the
    # time so far.  The run makes at least one of each and stops before the
    # next one, timed like the last of its kind, would pass the deadline.
    colds, warm = [], []
    probe_s = 0.0
    while True:
        now = time.perf_counter()
        probe = not colds or (warm and cold_s < COLD_SHARE * (now - start))
        if colds and warm and now + (probe_s if probe else warm[-1]) > deadline:
            break
        if probe:
            colds.append(cold_probe(args.workload, args.seed, workdir))
            probe_s = time.perf_counter() - now
            cold_s += probe_s
        else:
            warm.append(runner.iteration())
    runner.attempted += sum(c["attempted"] for c in colds)
    runner.failed += sum(c["failed"] for c in colds)
    setups = [setup_s] + [c["setup_s"] for c in colds]
    firsts = [first_s] + [c["first_iter_s"] for c in colds]
    tail_value, tail_pct, beyond = tail(warm)
    rate_name = "reports_per_s" if args.workload == "check_pairs" else "records_per_s"
    per_iteration = len(runner.invocations) if args.workload == "check_pairs" else runner.records
    rows = [
        ("setup_s", statistics.median(setups), "s", f"median, n={len(setups)}"),
        ("first_iter_s", statistics.median(firsts), "s", f"median, n={len(firsts)}"),
        ("iter_s.p50", statistics.median(warm), "s", f"n={len(warm)}"),
        ("iter_s.tail", tail_value, "s", f"p{tail_pct:.0f}, n={len(warm)}, {beyond} beyond"),
        (rate_name, per_iteration * len(warm) / sum(warm), "1/s", f"n={len(warm)}"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
         "n=1"),
        ("fail_frac", runner.failed / runner.attempted, "frac", f"n={runner.attempted}"),
    ]
    return runner, rows, None


def untraced_child(args, seconds: float, env: dict, blas_threads: str) -> dict:
    """The workload's untraced result in a child process started with ``env``."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0",
         "--blas-threads", blas_threads],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True, env=env)
    return json.loads(done.stdout.splitlines()[-1])


def per_layer(args, workdir: str):
    from instrument import Instrumentation, layer_metrics, span_records
    from spans import Recorder

    runner = Runner(args.workload, args.seed, workdir)
    runner.iteration()
    untraced = measure(runner, args.seconds / 3)
    recorder = Recorder()
    instrumentation = Instrumentation(recorder)
    instrumentation.install()
    try:
        traced = measure(runner, args.seconds / 3)
    finally:
        instrumentation.uninstall()
    children = {
        # one pool worker and one BLAS thread, set before the library is imported
        "serial": untraced_child(args, args.seconds / 3,
                                 {**GIVEN_ENV, "MISSPEC_KRIGE_THREADS": "1"}, "1"),
        # the library's defaults throughout: BLAS threads on top of the pool
        "blas_env": untraced_child(args, args.seconds / 3, GIVEN_ENV, "env"),
    }
    for child in children.values():
        runner.attempted += child["attempted"]
        runner.failed += child["failed"]

    metrics = layer_metrics(recorder.spans, len(traced), instrumentation.excluded_targets)
    metrics["cli.csv_bytes_differ"] = runner.csv_bytes_differ
    for name, child in children.items():
        metrics[f"{name}.iter_s.p50"] = child["metrics"]["iter_s.p50"]["value"]
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / statistics.median(untraced)
    units = declared_metrics(trace=True)
    counts = {"serial.iter_s.p50": "child process", "blas_env.iter_s.p50": "child process",
              "trace.overhead_s":
              f"n={len(traced)} traced, n={len(untraced)} untraced"}
    rows = [(name, value, units.get(name, "?"),
             counts.get(name, f"per iteration, n={len(traced)}"))
            for name, value in sorted(metrics.items())]
    return runner, rows, span_records(recorder.spans)


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", choices=("1", "env"), default="1",
                        help="1: one BLAS thread (default); env: as the environment gives")
    args = parser.parse_args(argv)
    if args.blas_threads == "1":
        os.environ.update(ONE_BLAS_THREAD)   # before the library imports numpy
    if not (SRC_DIR / "misspec_krige" / "__init__.py").is_file():
        print(f"misspec_krige sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        measure_fn = per_layer if args.trace else end_to_end
        runner, rows, spans = measure_fn(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    declared = declared_metrics(bool(args.trace))
    measured = {name: value for name, value, _, _ in rows}
    if set(declared) - set(measured):
        raise SystemExit(f"declared metrics not measured: {sorted(set(declared) - set(measured))}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": env, "result": result,
                   "table": rows}, fh, indent=1)
    if spans is not None:
        with open(OUT_DIR / f"spans-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value, unit, note in rows:
        print(f"{name:<34} {value:>14.6g} {unit:<6} {note}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
