"""fermient benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload lemma2-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from a checkout: the package is imported from ``src/`` next to this
directory, never from an installed copy. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` wraps the package's public functions at
every module binding and reports per-layer metrics from a fixed number of
cycles instead (so call counts repeat exactly). Human-readable lines come
first; the last line of stdout is one JSON object. The exit code is 0 only
if every output passed its check.
"""

from __future__ import annotations

import os

# One BLAS thread: the inputs are small matrices on a shared 2-core host, and
# a fixed cap keeps runs comparable. Must be set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups per run; setup_s is their median
SETUPS = 5
#: p90 is reported only with at least ten calls beyond it
P90_MIN_CALLS = 100



def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(names: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _import_program():
    """Import fermient from the checkout afresh, dropping any earlier copy.

    A fresh import also empties the package's module-level gate caches, so
    every set-up pays for them again.
    """
    for key in [k for k in sys.modules if k == "fermient" or k.startswith("fermient.")]:
        del sys.modules[key]
    fm = importlib.import_module("fermient")
    importlib.import_module("fermient.cli")
    if Path(fm.__file__).resolve().parent != SRC / "fermient":
        _fail(f"imported fermient from {fm.__file__}, not from {SRC}")
    return fm


def _reference_kernel_ms() -> float:
    """Median time of a fixed numpy + interpreter kernel: a host-speed probe
    that no change to the program can move."""
    import numpy as np

    a = np.random.default_rng(0).normal(size=(96, 96))
    a = a + a.T
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.linalg.eigh(a)
        total = 0
        for k in range(100_000):
            total += k & 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _host() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _setup(wl_cls, seed: int, workdir: Path):
    """Run SETUPS complete set-ups; keep the last. Returns (workload, times)."""
    times = []
    wl = None
    for _ in range(SETUPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        fm = _import_program()
        wl = wl_cls()
        wl.setup(fm, seed, workdir)
        times.append(time.perf_counter() - t0)
    return wl, times


class Tally:
    """Timed calls and their verdicts."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.attempted = 0
        self.verified = 0
        self.failed = 0
        self.reported = False

    def run(self, wl, item, tracer=None) -> float:
        units = wl.units(item)
        self.attempted += units
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            output = wl.call(item)
        except Exception:
            dt = time.perf_counter() - t0
            self._report(f"call {item!r} raised")
            self.failed += units
            return dt
        finally:
            if tracer is not None:
                tracer.active = False
        dt = time.perf_counter() - t0
        self.durations.append(dt)
        try:
            verified, failed = wl.check(item, output)
        except Exception:
            self._report(f"checking {item!r} raised")
            verified, failed = 0, units
        if failed:
            print(f"perfbench: {wl.name} item {item!r} failed its check", file=sys.stderr)
        self.verified += verified
        self.failed += failed
        return dt

    def _report(self, what: str) -> None:
        if not self.reported:
            print(f"perfbench: {what}", file=sys.stderr)
            traceback.print_exc()
            self.reported = True


def _measure(wl, seconds: float) -> tuple[Tally, int, float]:
    """Whole cycles until the time inside program calls reaches ``seconds``.

    Returns the tally, the number of cycles, and the median cycle time: the
    sum over cycle positions of the median call time at that position. The
    host runs in fast and slow spells of seconds, so a median over cycles is
    steadier than the total.
    """
    tally = Tally()
    busy = 0.0
    by_position: list[list[float]] = []
    cycles = 0
    while busy < seconds:
        for position, item in enumerate(wl.cycle(cycles)):
            dt = tally.run(wl, item)
            busy += dt
            if position == len(by_position):
                by_position.append([])
            by_position[position].append(dt)
        cycles += 1
    return tally, cycles, sum(statistics.median(times) for times in by_position)


def _traced(wl, trace_path: Path) -> tuple[Tally, dict]:
    """Alternate untraced and traced cycles; per-layer figures from the traced."""
    from spans import Tracer

    tracer = Tracer()
    tally = Tally()
    walls = [0.0, 0.0]
    traced_items = 0
    for index in range(wl.trace_cycles):
        items = wl.cycle(index)
        walls[0] += sum(tally.run(wl, item) for item in items)
        tracer.install()
        try:
            walls[1] += sum(tally.run(wl, item, tracer) for item in items)
        finally:
            tracer.uninstall()
        traced_items += sum(wl.units(item) for item in items)
    layers = tracer.summary(traced_items)
    layers["trace.overhead_ratio"] = walls[1] / walls[0]
    tracer.dump(trace_path)
    return tally, layers


def _declared(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def run_one(args, wl_cls) -> int:
    host = _host()
    ref_before = _reference_kernel_ms()
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        wl, setup_times = _setup(wl_cls, args.seed, workdir)
        print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("host " + json.dumps(host))
        print("inputs " + json.dumps(wl.inputs()))
        for message in wl.setup_failures:
            print(f"perfbench: {message}", file=sys.stderr)
        if args.trace:
            trace_path = HERE / "out" / f"spans-{wl.name}-seed{args.seed}.jsonl"
            tally, values = _traced(wl, trace_path)
        else:
            tally, cycles, cycle_s = _measure(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref_after = _reference_kernel_ms()
    failed = tally.failed + len(wl.setup_failures)
    attempted = tally.attempted + wl.setup_checks
    correct = failed == 0 and tally.verified + wl.setup_checks == attempted

    print(f"set-ups (s): {' '.join(f'{t:.3f}' for t in setup_times)}")
    print(f"reference kernel (ms): before {ref_before:.3f} after {ref_after:.3f}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} items, "
          f"{wl.setup_checks} of them set-up checks)")
    if args.trace:
        values["host.ref_kernel_ms"] = statistics.mean((ref_before, ref_after))
        print(f"traced {wl.trace_cycles} cycles, spans in {trace_path.relative_to(ROOT)}")
    else:
        calls = len(tally.durations)
        values = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": tally.verified / cycles / cycle_s,
            "call_p50_ms": statistics.median(tally.durations) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"timed {sum(tally.durations):.3f} s in calls: {cycles} cycles, {calls} calls, "
              f"{tally.verified} items; median cycle {cycle_s:.3f} s")
        if calls >= P90_MIN_CALLS:
            p90 = statistics.quantiles(tally.durations, n=10)[8] * 1e3
            print(f"call_p90_ms {p90:.6g} ms")
        else:
            print(f"call_p90_ms n/a: {calls} calls, p90 needs {P90_MIN_CALLS}")
        for name, unit in _declared("end_to_end").items():
            print(f"{name} {values[name]:.6g} {unit}")
    units = _declared("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    _emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def run_all(args, names: list[str]) -> int:
    """Each workload in its own fresh process; a summary line per metric."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = value
    _emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def main() -> int:
    if not (SRC / "fermient" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'fermient'}; run from a fermient checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    args = _parse_args(list(WORKLOADS))
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    return run_one(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
