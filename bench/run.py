"""varda benchmark: one workload in a closed loop of in-process CLI calls.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A task is one call of `varda.cli.main`, the function behind the `varda`
entry point, writing into a fresh output directory, so config parsing, CSV
formatting and atomic writes are timed too.  Tasks run one after another in
this process until S seconds have passed; BLAS threads are capped at the
number of usable cores.  Seed 0 runs the paper configuration; other seeds
draw alpha and nu from fixed lists.  Every task's outputs are checked after
the timed window (see checks.py).

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json:
set-up time (see SETUP_CODE), the median wall and CPU time of a task, and
the process's peak RSS.  Set-up and task times are scaled to a nominal
machine speed; the raw times are printed beside them.  With --trace 1 the
run alternates untraced and traced tasks and reports the per-layer metrics
of the traced ones (see spans.py), the raw medians of the untraced ones and
the tracing overhead.  The last line of standard output is one JSON object
with the result; the lines before it print every metric with its unit and
sample count.  Spans are written to .bench_tmp/ when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_tmp"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
# Size of SETUP_CODE's kernel: functions compiled, loop turns, dicts built.
SETUP_KERNEL_SIZE = (700, 100_000, 60_000)
SETUP_KERNEL_NOMINAL_S = 0.15
SETUP_TIMEOUT_S = 60
CALIBRATION_LOOPS = 12000
CALIBRATION_NOMINAL_S = 0.15

# Workload -> CLI arguments of one task at seed 0.
WORKLOADS = {
    "assimilate_large": ("assimilate", "problem.name=example2", "grid.d=200", "grid.N=200"),
    "adapt_dataonly": (
        "adapt", "problem.name=example3", "problem.eps=0.5", "adapt.n_initial=5", "adapt.n_max=30",
    ),
    "adapt_reference": (
        "adapt", "problem.name=example2", "adapt.n_max=40", "adapt.record_reference=true",
    ),
}

# Seeds other than 0 draw the trust weight and the diffusion from these
# lists, which lie inside the valid ranges of both catalog problems.  Every
# pair leaves the amount of work per task unchanged.
ALPHAS = (0.003, 0.01, 0.03, 0.1, 0.3, 1.0)
NUS = (0.05, 0.1, 0.2)

# Per-layer metrics by layer, with the end-to-end metrics they should move.
LAYER_MAP = (
    ("problems", "task_norm_s.p50 on adapt_dataonly and adapt_reference",
     ("problems.callback_calls", "problems.callback_points", "problems.callback_s")),
    ("adaptivity", "task_norm_s.p50 on adapt_dataonly and adapt_reference",
     ("adaptivity.compute_indicators.calls", "adaptivity.compute_indicators.self_s",
      "adaptivity.mark.s", "adaptivity.uniform_initial_errors.self_s")),
    ("mesh", "task_norm_s.p50 on adapt_dataonly and adapt_reference",
     ("mesh.bisect_intervals.calls", "mesh.bisect_intervals.s")),
    ("elliptic", "task_norm_s.p50, task_cpu_norm_s.p50 and peak_rss_mb on assimilate_large; "
     "per-call cost on adapt_reference",
     ("elliptic.solve_sparse.calls", "elliptic.solve_sparse.s", "elliptic.unknowns", "elliptic.nnz")),
    ("elliptic, fem1d", "task_norm_s.p50 on adapt_reference; on assimilate_large once the solve is fast",
     ("elliptic.assemble.calls", "elliptic.assemble.self_s",
      "fem1d.assemble_spatial_matrices.calls", "fem1d.assemble_spatial_matrices.s")),
    ("forward, assimilation, cli",
     "task_norm_s.p50 on assimilate_large after the solver stops dominating",
     ("forward.solve_state.s", "assimilation.assimilate.self_s", "assimilation.rmse.s",
      "cli.self_s", "cli.bytes_written")),
    ("elliptic (quality guard)", "nothing; must stay <= 1e-10", ("elliptic.solver_residual.max",)),
    ("benchmark", "nothing; raw medians of the untraced tasks and traced minus untraced task_s.p50",
     ("task_s.p50", "task_cpu_s.p50", "tracing.overhead_s")),
)

# One set-up sample, run in a fresh interpreter: argv is SETUP_KERNEL_SIZE,
# the source directory and the config.  It imports varda.cli and resolves
# the config into a ProblemSpec, and prints the wall, process CPU and
# main-thread CPU time of that, then the mean main-thread CPU time of a fixed
# pure-Python kernel run just before and just after it.  Like an import, the
# kernel compiles source, runs bytecode and allocates objects.  Set-up time
# is the import's main-thread CPU time over the kernel's, times
# SETUP_KERNEL_NOMINAL_S: the kernel shares the import's process and moment,
# so it tracks the host's speed better than a gauge in another process, and
# main-thread CPU time leaves out the BLAS threads' start-up spin, which
# varies with the load on the other cores.
SETUP_CODE = """
import sys, time
functions, turns, dicts = (int(v) for v in sys.argv[1:4])
source = "".join(
    f"def f{i}(a, b=1, *c):\\n    x = [a * k + b for k in range({i}) if k % 3]\\n    return {{'x': x, 'c': c}}\\n"
    for i in range(functions)
)
def kernel():
    start, acc, table = time.thread_time(), 0, {}
    for i in range(turns):
        acc += i * i % 7
        table[i & 1023] = acc
    compile(source, "<kernel>", "exec")
    rows = [{"a": i, "b": str(i)} for i in range(dicts)]
    return time.thread_time() - start
before = kernel()
sys.path.insert(0, sys.argv[4])
wall, cpu, thread = time.perf_counter(), time.process_time(), time.thread_time()
import varda.cli as cli
cli.resolve_problem(cli.build_config(dict(a.split("=", 1) for a in sys.argv[5:])))
wall, cpu, thread = time.perf_counter() - wall, time.process_time() - cpu, time.thread_time() - thread
print(repr(wall), repr(cpu), repr(thread), repr(0.5 * (before + kernel())))
"""


def task_argv(workload: str, seed: int) -> list[str]:
    argv = list(WORKLOADS[workload])
    if seed != 0:
        rng = random.Random(seed)
        argv += [f"problem.alpha={rng.choice(ALPHAS)!r}", f"problem.nu={rng.choice(NUS)!r}"]
    return argv


class SpeedGauge:
    """Scales timings to a nominal machine speed.

    On a shared host the speed of this process drifts by tens of percent
    from one second to the next, and wall and CPU time drift alike, so raw
    task times spread too widely between runs to compare two commits.  The
    gauge times a fixed kernel of small numpy calls and one sort before and
    after each measured block.  `scale()` returns the kernel's nominal time
    over its mean time around the block, for wall and for CPU time; a timing
    multiplied by it reads in seconds on a machine where the kernel takes
    CALIBRATION_NOMINAL_S.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._x = np.linspace(0.0, 1.0, 600)
        self._unsorted = np.random.default_rng(0).random(1_000_000)
        self.samples: list[tuple[float, float]] = []
        self._sample()

    def _sample(self) -> None:
        np, x = self._np, self._x
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for k in range(CALIBRATION_LOOPS):
            np.exp(-1.0 / (x * (k / CALIBRATION_LOOPS) + 0.1)).sum()
        np.sort(self._unsorted)
        self.samples.append((time.perf_counter() - wall0, time.process_time() - cpu0))

    def scale(self) -> tuple[float, float]:
        """Wall and CPU scale factors for the block since the last call."""
        self._sample()
        (wall_a, cpu_a), (wall_b, cpu_b) = self.samples[-2:]
        nominal = 2.0 * CALIBRATION_NOMINAL_S
        return nominal / (wall_a + wall_b), nominal / (cpu_a + cpu_b)


def measure_setup(overrides: list[str]) -> list[dict]:
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *map(str, SETUP_KERNEL_SIZE), str(SRC), *overrides],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        wall, cpu, thread, kernel = (float(v) for v in done.stdout.split())
        samples.append({"wall": wall, "cpu": cpu, "thread": thread, "kernel": kernel,
                        "norm": thread / kernel * SETUP_KERNEL_NOMINAL_S})
    return samples


def bytes_in(out: Path) -> int:
    return sum(path.stat().st_size for path in out.iterdir())


def run_tasks(cli, argv, run_dir: Path, seconds: float, tracer, gauge: SpeedGauge) -> list[dict]:
    """Closed loop: start the next task only after the previous one ended.

    With a tracer, odd tasks are traced, so one run measures both sides of
    the tracing overhead.
    """
    tasks: list[dict] = []
    start = time.perf_counter()
    gauge.scale()  # so that the first task is bracketed by fresh samples
    while True:
        i = len(tasks)
        traced = tracer is not None and i % 2 == 1
        out = run_dir / f"task{i}"
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.installed())
                stack.enter_context(tracer.task(i))
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                code = cli.main([*argv, "--output-dir", str(out)])
            except Exception:  # a crash fails this task, not the run
                traceback.print_exc()
                code = None
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        wall_scale, cpu_scale = gauge.scale()
        tasks.append({
            "id": i, "traced": traced, "code": code, "out": out, "wall": wall, "cpu": cpu,
            "norm": wall * wall_scale, "cpu_norm": cpu * cpu_scale,
        })
        if time.perf_counter() - start >= seconds and (tracer is None or len(tasks) >= 2):
            return tasks


def check_tasks(checker, tasks: list[dict]) -> None:
    for task in tasks:
        task["bytes"] = bytes_in(task["out"]) if task["out"].is_dir() else 0
        if task["code"] != 0:
            task["problems"] = [f"exit code {task['code']}"]
        else:
            task["problems"] = checker(task["out"])
        for problem in task["problems"]:
            print(f"task {task['id']}: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "varda" / "__init__.py").is_file():
        print(f"error: no varda sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import varda.cli as cli

    import checks
    import spans

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in bench["workloads"]}[args.workload]
    argv_ = task_argv(args.workload, args.seed)
    overrides = argv_[1:]
    env = (
        f"nproc={nproc} blas_threads={nproc} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__}"
    )
    print(f"# workload {args.workload} seed={args.seed} trace={args.trace}: {why}")
    print(f"# task: varda {' '.join(argv_)}")
    print(f"# env: {env}")

    gauge = SpeedGauge()
    setup = [] if args.trace else measure_setup(overrides)
    pairs = dict(item.split("=", 1) for item in overrides)
    reference = checks.load_reference(args.workload) if args.seed == 0 else None
    checker = checks.OutputChecker(argv_[0], pairs, reference)
    tracer = spans.Tracer() if args.trace else None

    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        tasks = run_tasks(cli, argv_, run_dir, args.seconds, tracer, gauge)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_tasks(checker, tasks)
    finally:
        shutil.rmtree(run_dir)
    failed = sum(1 for t in tasks if t["problems"])
    plain = [t for t in tasks if not t["traced"]]
    traced = [t for t in tasks if t["traced"]]

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    values: dict[str, float] = {}
    samples: dict[str, int] = {}
    if args.trace:
        per_task = [tracer.task_metrics(t["id"]) for t in traced]
        for name in per_task[0]:
            values[name] = statistics.median(m[name] for m in per_task)
            samples[name] = len(per_task)
        values["cli.bytes_written"] = median(tasks, "bytes")
        values["task_s.p50"] = median(plain, "wall")
        values["task_cpu_s.p50"] = median(plain, "cpu")
        # The span that builds the counting ProblemSpec is the benchmark's work.
        traced_wall = [t["wall"] - m[f"{spans.WRAP}.s"] for t, m in zip(traced, per_task)]
        values["tracing.overhead_s"] = statistics.median(traced_wall) - median(plain, "wall")
        samples.update({"cli.bytes_written": len(tasks), "task_s.p50": len(plain),
                        "task_cpu_s.p50": len(plain), "tracing.overhead_s": len(tasks)})
        listed = bench["per_layer"]
        (WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "env": env, "spans": tracer.dump()})
        )
    else:
        values = {
            "setup_s": median(setup, "norm"),
            "task_norm_s.p50": median(plain, "norm"),
            "task_cpu_norm_s.p50": median(plain, "cpu_norm"),
            "peak_rss_mb": peak_rss_mb,
        }
        samples = {"setup_s": len(setup), "task_norm_s.p50": len(plain),
                   "task_cpu_norm_s.p50": len(plain), "peak_rss_mb": 1}
        listed = bench["end_to_end"]

    for label, rows, keys in (("task", tasks, ("wall", "cpu", "norm", "cpu_norm")),
                              ("setup", setup, ("wall", "cpu", "thread", "kernel", "norm"))):
        for key in keys:
            print(f"# {label} {key:8s} s: " + " ".join(
                f"{r[key]:.3f}{'*' if r.get('traced') else ''}" for r in rows))
    print("# calibration wall/cpu s: " + " ".join(f"{w:.3f}/{c:.3f}" for w, c in gauge.samples))
    for label, rows in (("task", plain), ("setup", setup)):
        if rows:
            print(f"# raw {label} wall p50 {median(rows, 'wall'):.6g} s, "
                  f"cpu p50 {median(rows, 'cpu'):.6g} s (n={len(rows)})")
    if args.trace:
        for layer, moves, names in LAYER_MAP:
            print(f"# layer {layer}: {', '.join(names)} should move {moves}")
    metrics = {}
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:42s} {values[name]:<24.10g} {unit:6s} (n={samples[name]})")
    print(f"{'fail_frac':42s} {failed / len(tasks):<24.10g} {'1':6s} ({failed} of {len(tasks)} tasks)")
    print(json.dumps({"correct": failed == 0, "attempted": len(tasks), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
