"""lyaplab's benchmark: run one workload, check its results, print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; it imports lyaplab from `src/`.  One client
runs the workload's pass (a fixed, seeded list of tasks; see workloads.py) in
a closed loop, pass after pass, for about `--seconds`, with BLAS and OpenMP
pinned to one thread.

Every time printed is in reference-speed seconds (refclock.py): plain
seconds scaled by how fast a fixed reference kernel runs at that moment, so
that the drift of a shared host's speed cancels.
With `--trace 0` the end-to-end metrics are printed, measured untraced.
With `--trace 1` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones (tracing.py); `trace.overhead_s` is the
median traced pass minus the median untraced pass.

The metric names and units are the ones in BENCHMARK.json.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.  The environment, the
per-pass record and the sha256 of the results payload are also written to
`.perfbench_out/`, with the spans of traced runs.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:                 # must precede the first numpy import
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("rotation_search", "thouless_periodic", "periodic_phi")
SETUP_PROBES = 8           # fresh processes that repeat the set-up; plus this one
PROBE_TIMEOUT_S = 60


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    raw_wall: float = 0.0
    cpu: float = 0.0
    task_s: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    sha256: str = ""
    spans: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time the import and input construction, print it, exit")
    return p.parse_args(argv)


def load(workload: str, seed: int):
    """Import lyaplab from src/ and build the workload's tasks; the time this
    takes, scaled to reference speed by the kernels run right after, is one
    set-up sample."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import lyaplab
    if Path(lyaplab.__file__).resolve().parent != SRC / "lyaplab":
        raise ImportError(f"lyaplab imported from {lyaplab.__file__}, not from {SRC}")
    import workloads
    tasks = workloads.WORKLOADS[workload](seed)
    elapsed = time.perf_counter() - start
    import refclock
    return tasks, elapsed * refclock.host_factor()


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


def run_pass(tasks, tracer, reported: set, clock) -> Pass:
    """One pass over the tasks, timed on the reference clock `clock`;
    `raw_wall` is plain seconds, less the time of the reference kernels."""
    result = Pass(traced=tracer is not None)
    kernels0 = len(clock.kernel_times)
    payloads = []
    with tracer.installed() if tracer else nullcontext():
        clock.start()
        try:
            raw0 = time.perf_counter()
            wall0, cpu0 = clock.read()
            for task_id, task in enumerate(tasks):
                if tracer:
                    tracer.task = task_id
                t0 = clock.wall()
                try:
                    ok, payload = task.run()
                except Exception:
                    ok, payload = False, traceback.format_exc()
                result.task_s.append(clock.wall() - t0)
                result.ok.append(ok)
                payloads.append(payload)
                if not ok and task.name not in reported:
                    reported.add(task.name)
                    print(f"FAILED {task.name}: {payload}", file=sys.stderr)
            wall1, cpu1 = clock.read()
            result.raw_wall = time.perf_counter() - raw0
        finally:
            clock.stop()
    result.wall, result.cpu = wall1 - wall0, cpu1 - cpu0
    result.raw_wall -= sum(clock.kernel_times[kernels0:])
    blob = json.dumps(payloads, sort_keys=True).encode()
    result.sha256 = hashlib.sha256(blob).hexdigest()
    return result


def timed_loop(tasks, seconds: float, trace: bool) -> tuple:
    """Closed loop, one client.  The first pass warms the allocator and numpy
    up: it is checked but not timed.  Timed passes then run back to back, at
    least two (four when traced), and more while one as long as the last
    still ends within `seconds`.  Traced runs alternate untraced and traced
    passes, starting untraced.  Every pass, and every span, is timed on the
    reference clock."""
    import refclock
    import tracing
    reported = set()
    clock = refclock.RefClock()
    warmup = run_pass(tasks, None, reported, clock)
    passes = []
    start = time.perf_counter()
    elapsed = last = 0.0
    while len(passes) < (4 if trace else 2) or elapsed + last <= seconds:
        tracer = tracing.Tracer(clock.wall) if trace and len(passes) % 2 == 1 else None
        passes.append(run_pass(tasks, tracer, reported, clock))
        if tracer:
            passes[-1].spans = tracer.spans
            passes[-1].layers = tracing.layer_metrics(tracer.spans)
        last = time.perf_counter() - start - elapsed
        elapsed += last
    return warmup, passes, clock.kernel_times


def task_tail(times) -> tuple:
    """The highest percentile with at least ten tasks beyond it: the eleventh
    largest task time; the maximum when there are fewer than 20 tasks."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return "max", ordered[-1]
    return f"p{100.0 * (n - 10) / n:.1f}", ordered[n - 11]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "loop": "closed, one client"}


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lyaplab" / "__init__.py").is_file():
        print(f"run.py: no lyaplab sources under {SRC}", file=sys.stderr)
        return 2
    tasks, own_setup = load(args.workload, args.seed)
    if args.setup_only:
        print(repr(own_setup))
        return 0
    import refclock
    specs = metric_specs()
    setups = [own_setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    warmup, passes, kernel_times = timed_loop(tasks, args.seconds, bool(args.trace))

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    per_task = [statistics.median(times) for times in zip(*(p.task_s for p in plain))]
    tail_label, tail = task_tail(per_task)
    attempted = sum(len(p.ok) for p in [warmup] + passes)
    failed = sum(not ok for p in [warmup] + passes for ok in p.ok)
    shas = {p.sha256 for p in [warmup] + passes}
    end_to_end = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(p.wall for p in plain),
        "cpu_s": statistics.median(p.cpu for p in plain),
        "task_p50_s": statistics.median(per_task),
        "task_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} tasks failed their check")
    if len(shas) > 1:
        problems.append("results payload differs between passes")
    per_layer = {}
    if traced:
        import tracing
        for name in tracing.EXACT_COUNTS:
            if len({p.layers[name] for p in traced}) > 1:
                problems.append(f"count {name} differs between traced passes")
        per_layer = {name: value if name in tracing.EXACT_COUNTS
                     else statistics.median(p.layers[name] for p in traced)
                     for name, value in traced[0].layers.items()}
        per_layer["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                         - end_to_end["solve_s"])

    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer if args.trace else end_to_end
    missing = set(specs[section]) - set(values)
    if missing:
        print(f"run.py: no value for {sorted(missing)}", file=sys.stderr)
        return 3
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes 1 warm-up + {len(plain)} untraced + {len(traced)} traced  "
          f"tasks per pass {len(tasks)}  attempted {attempted}  failed {failed}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"task_tail_s is {tail_label} over {len(per_task)} tasks "
          "(per-task median over untraced passes)")
    print(f"times in reference-speed seconds; plain wall seconds per pass "
          f"{statistics.median(p.raw_wall for p in plain):.6g} (median), reference "
          f"kernel {statistics.median(kernel_times) * 1e3:.4g} ms (median of "
          f"{len(kernel_times)}, nominal {refclock.NOMINAL_S * 1e3:.4g} ms)")
    for name, unit in specs["end_to_end"].items():
        print(f"  {name:<34} {end_to_end[name]:>16.6g} {unit}")
    for name, unit in specs["per_layer"].items() if args.trace else ():
        print(f"  {name:<34} {per_layer[name]:>16.6g} {unit}")
    print(f"results sha256 {passes[0].sha256}")
    for problem in problems:
        print(f"NOT CORRECT: {problem}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "env": env, "setup_samples_s": setups, "results_sha256": passes[0].sha256,
              "task_names": [t.name for t in tasks], "task_tail": tail_label,
              "warmup": {"wall_s": warmup.wall, "task_s": warmup.task_s, "ok": warmup.ok},
              "reference_kernel_s": kernel_times,
              "passes": [{"traced": p.traced, "wall_s": p.wall, "cpu_s": p.cpu,
                          "raw_wall_s": p.raw_wall,
                          "task_s": p.task_s, "ok": p.ok, "sha256": p.sha256}
                         for p in passes],
              "end_to_end": end_to_end, "per_layer": per_layer, "problems": problems}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        with open(stem.with_suffix(".spans.jsonl"), "w") as f:
            for i, p in enumerate(passes):
                for span in p.spans:
                    f.write(json.dumps([i] + span) + "\n")

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in specs[section].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
