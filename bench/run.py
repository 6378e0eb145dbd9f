"""focksim benchmark: drives ``focksim.cli.main`` in-process, one workload per run.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload prep-sweep --seed 7 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25   # every workload, one table
    python3 bench/run.py --selftest                    # tiny sizes, asserts the contract

Load model: a closed loop in one process on one thread.  Each pass runs the
workload's CLI invocations one after another; there is no concurrency, no
queue and no I/O in the hot path, so no waiting or queueing time exists to
report.  BLAS/OpenMP pools are pinned to one thread.

``--trace 0`` reports the end-to-end metrics (items_per_s, setup_s,
peak_rss_mb) with tracing off; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of ``spans.py`` plus
``trace.overhead_ratio``.  The last line of standard output is one JSON
object; the lines before it repeat each metric with its sample count.
See ``NOTES.md`` beside this file for what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# pin native thread pools before numpy is imported (here or in a child)
BLAS_ENV = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

from spans import Recorder, layer_metrics, layer_self_ns, layer_units  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, check_invocation  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD = Path(__file__).with_name("child.py")
OUT = ROOT / ".bench_out"

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# fresh interpreters timed per run for setup_s (median reported)
SETUP_SAMPLES = 15
# fewest timed passes per run, whatever --seconds says
MIN_PASSES = 2
# items per pass in --selftest
QUICK_ITEMS = {"prep-sweep": 3, "ghz-sampled": 40, "detector-readout": 2}

cli = None  # focksim.cli, imported once the checkout's src/ is found


def _invoke(argv: list[str]):
    """Exit code of one CLI invocation; None when it raised."""
    try:
        return cli.main(argv)  # looked up per call, so the traced pass sees its wrapper
    except SystemExit as exc:
        return exc.code
    except Exception:  # noqa: BLE001 - a crash is a failed invocation, not a dead run
        traceback.print_exc(file=sys.stderr)
        return None


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Session:
    """One workload at one seed and size: its passes, children and tallies."""

    def __init__(self, workload, seed: int, items: int, setup_samples: int, out_root: Path):
        self.workload = workload
        self.seed = seed
        self.items = items
        self.setup_samples = setup_samples
        self.argvs = workload.argvs(seed, items)
        self.setup_argvs = workload.argvs(seed, workload.min_items)
        self.out_dir = out_root / workload.name
        self.child_dir = out_root / (workload.name + "-child")
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.setup_walls: list[float] = []
        self.rss_mb: float | None = None
        self.layers: list[dict[str, float]] = []
        self.recorder = Recorder()
        self.attempted = 0
        self.failed = 0

    def _account(self, items: int, argvs, codes, out_dir: Path) -> None:
        for argv, code in zip(argvs, codes):
            self.attempted += 1
            if code != 0:
                problem = f"exit code {code}"
            else:
                problem = check_invocation(self.workload, self.seed, items, out_dir, argv)
            if problem is not None:
                self.failed += 1
                print(f"FAILED {self.workload.name}: {' '.join(argv)}: {problem}", file=sys.stderr)

    def run_pass(self, traced: bool = False) -> float:
        """Run and check one pass in-process; returns its wall time in s."""
        os.environ["FOCKSIM_OUT_DIR"] = str(_fresh_dir(self.out_dir))
        codes = []
        recorder = self.recorder
        gc.collect()  # between passes only; the collector stays on inside one
        with contextlib.redirect_stdout(io.StringIO()):
            if traced:
                recorder.install()
                recorder.begin_pass()
            start = perf_counter()
            for argv in self.argvs:
                codes.append(_invoke(argv))
            wall = perf_counter() - start
            if traced:
                spans, counts = recorder.end_pass()
                recorder.uninstall()
                wall = (spans[0][3] - spans[0][2]) / 1e9
        self._account(self.items, self.argvs, codes, self.out_dir)
        if traced:
            counts["cli.bytes_written"] = sum(
                p.stat().st_size for p in self.out_dir.iterdir() if p.is_file()
            )
            self.layers.append(layer_metrics(spans, counts))
        return wall

    def timed_pass(self, traced: bool) -> float:
        wall = self.run_pass(traced)
        (self.traced_walls if traced else self.walls).append(wall)
        return wall

    def _child(self, argvs, items: int) -> tuple[float, dict]:
        """Run invocations in a fresh interpreter; returns wall time and its report."""
        env = dict(os.environ, PYTHONPATH=str(SRC), FOCKSIM_OUT_DIR=str(_fresh_dir(self.child_dir)))
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(argvs)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            )
        except subprocess.TimeoutExpired:
            proc = None
        wall = perf_counter() - start
        report = {}
        if proc is not None and proc.returncode == 0:
            report = json.loads(proc.stdout.splitlines()[-1])
        elif proc is not None:
            sys.stderr.write(proc.stderr)
        self._account(items, argvs, report.get("codes", [None] * len(argvs)), self.child_dir)
        return wall, report

    def sample_setup(self) -> None:
        wall, _ = self._child(self.setup_argvs, self.workload.min_items)
        self.setup_walls.append(wall)

    def sample_rss(self) -> None:
        _, report = self._child(self.argvs, self.items)
        self.rss_mb = report.get("peak_rss_kb", 0) / 1024.0

    # -- results ---------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        return {
            "items_per_s": statistics.median(self.items / wall for wall in self.walls),
            "setup_s": statistics.median(self.setup_walls),
            "peak_rss_mb": self.rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        metrics = {name: statistics.median_low(p[name] for p in self.layers) for name in self.layers[0]}
        metrics["trace.overhead_ratio"] = statistics.median(self.traced_walls) / statistics.median(self.walls)
        return metrics

    def describe(self, trace: bool) -> list[str]:
        """Human-readable lines: every metric with its unit and sample count."""
        w = self.workload
        error_rate = self.failed / self.attempted
        lines = [
            f"workload {w.name} seed={self.seed}{'' if w.seeded else ' (seed does not enter)'}: "
            f"{self.items} {w.item}s per pass",
            f"  error_rate {error_rate!r} ({self.failed} of {self.attempted} invocations failed)",
            "  waiting/queueing: none (one process, one thread, closed loop, no I/O in the hot path)",
        ]
        if not trace:
            walls, metrics = self.walls, self.end_to_end()
            lines += [
                f"  items_per_s {metrics['items_per_s']!r} 1/s "
                f"(median of {len(walls)} warm passes; pass wall min {min(walls):.4f} s, max {max(walls):.4f} s)",
                f"  setup_s {metrics['setup_s']!r} s "
                f"(median of {len(self.setup_walls)} fresh interpreters running {w.min_items} {w.item}(s))",
                f"  peak_rss_mb {metrics['peak_rss_mb']!r} MB (1 fresh process running one pass)",
            ]
            return lines
        units = layer_units()
        lines.append(
            f"  per-layer values: medians of {len(self.layers)} traced passes, "
            f"alternated with {len(self.walls)} untraced ones"
        )
        lines += [f"  {name} {value!r} {units[name]}" for name, value in self.per_layer().items()]
        return lines

    def write_spans(self, machine: dict) -> Path:
        """Write every span of every traced pass, one per line, gzip-compressed."""
        path = OUT / f"spans-{self.workload.name}.csv.gz"
        with gzip.open(path, "wt", compresslevel=1) as handle:
            header = {"workload": self.workload.name, "seed": self.seed, "items": self.items, "machine": machine}
            handle.write("# " + json.dumps(header) + "\n")
            handle.write("pass,span,parent,label,start_ns,end_ns\n")
            for pass_id, spans in enumerate(self.recorder.passes):
                for span_id, (label, parent, start, end) in enumerate(spans):
                    handle.write(f"{pass_id},{span_id},{parent},{label},{start},{end}\n")
        return path


def measure(sessions: list[Session], seconds: float, trace: bool) -> None:
    """Warm up, then cycle through the sessions until ``seconds`` each are spent.

    Each cycle starts at the next session and flips the untraced/traced
    order, so contention from outside spreads evenly over workloads and
    pass kinds.  Set-up samples are spread evenly over the passes.
    """
    for session in sessions:
        session.run_pass()
    budget = seconds * len(sessions)
    spent, cycle = 0.0, 0
    while spent < budget or any(len(s.walls) < MIN_PASSES for s in sessions):
        k = cycle % len(sessions)
        kinds = ((False, True) if cycle % 2 == 0 else (True, False)) if trace else (False,)
        for session in sessions[k:] + sessions[:k]:
            for traced in kinds:
                spent += session.timed_pass(traced)
            due = session.setup_samples * min(1.0, spent / budget) if budget else session.setup_samples
            while not trace and len(session.setup_walls) < due:
                session.sample_setup()
        cycle += 1
    if not trace:
        for session in sessions:
            while len(session.setup_walls) < session.setup_samples:
                session.sample_setup()
            session.sample_rss()


def machine_info() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_ENV,
    }


def selftest(out_root: Path) -> list[str]:
    """Each workload once at tiny size; returns the contract violations found."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS.values():
        items = QUICK_ITEMS[workload.name]
        plain = Session(workload, DEFAULT_SEED, items, 1, out_root)
        measure([plain], 0.0, trace=False)
        traced = Session(workload, DEFAULT_SEED, items, 1, out_root)
        measure([traced], 0.0, trace=True)
        for kind, emitted, units in (
            ("end_to_end", plain.end_to_end(), END_TO_END_UNITS),
            ("per_layer", traced.per_layer(), layer_units()),
        ):
            for metric in spec[kind]:
                name = metric["name"]
                if not isinstance(emitted.get(name), (int, float)) or units.get(name) != metric["unit"]:
                    problems.append(f"{workload.name}: {kind} metric {name} not emitted with unit {metric['unit']}")
            extra = set(emitted) - {m["name"] for m in spec[kind]}
            if extra:
                problems.append(f"{workload.name}: {kind} metrics missing from BENCHMARK.json: {sorted(extra)}")
        first, second = traced.layers[:2]
        for name, unit in layer_units().items():
            if unit != "ms" and name in first and first[name] != second[name]:
                problems.append(f"{workload.name}: count {name} differs across traced passes: {first[name]} != {second[name]}")
        for spans in traced.recorder.passes:
            root = spans[0][3] - spans[0][2]
            if sum(layer_self_ns(spans).values()) != root:
                problems.append(f"{workload.name}: per-layer self times do not sum to the root span")
        for session in (plain, traced):
            if session.failed:
                problems.append(f"{workload.name}: {session.failed} of {session.attempted} invocations failed")
    return problems


def main(argv: list[str] | None = None) -> int:
    global cli
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="timed pass time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="run every workload once at tiny size and check")
    args = parser.parse_args(argv)

    if not (SRC / "focksim" / "__init__.py").is_file():
        print("error: no src/focksim beside the benchmark directory; run from a focksim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from focksim import cli as focksim_cli

    cli = focksim_cli
    OUT.mkdir(exist_ok=True)
    out_root = OUT / f"run-{os.getpid()}"
    try:
        if args.selftest:
            problems = selftest(out_root)
            for problem in problems:
                print(f"selftest: {problem}")
            print("selftest failed" if problems else "selftest ok")
            return 1 if problems else 0

        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        sessions = [
            Session(WORKLOADS[name], args.seed, WORKLOADS[name].items, SETUP_SAMPLES, out_root)
            for name in names
        ]
        trace = bool(args.trace)
        machine = machine_info()
        measure(sessions, args.seconds, trace)
        print("machine: " + json.dumps(machine))
        for session in sessions:
            print("\n".join(session.describe(trace)))
            if trace:
                print(f"  spans written to {session.write_spans(machine).relative_to(ROOT)}")
        results = {s.workload.name: s.per_layer() if trace else s.end_to_end() for s in sessions}
        units = layer_units() if trace else END_TO_END_UNITS
        if args.workload == "all":
            metrics = {f"{w}/{n}": {"value": v, "unit": units[n]} for w, r in results.items() for n, v in r.items()}
        else:
            metrics = {n: {"value": v, "unit": units[n]} for n, v in results[args.workload].items()}
        attempted = sum(s.attempted for s in sessions)
        failed = sum(s.failed for s in sessions)
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(out_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
