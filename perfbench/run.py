"""Benchmark of zdmn: four closed-loop workloads against the public API and CLI.

Run from the root of a checkout (the directory holding ``src/zdmn``):

    python3 perfbench/run.py --workload engine --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads: forward-code, engine, exact, cli (see workloads.py).  With
``--trace 0`` the run times the workload with nothing wrapped and reports
the end-to-end metrics, every time taken at the reference host speed
(hostspeed.py) except on forward-code; with ``--trace 1`` it records spans
around the program's layers (spans.py) and reports the per-layer metrics
and the measured tracing overhead.  task_p50_s is the geometric mean over
a workload's task kinds of each kind's median task time (see task_p50).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it list every metric by
name with its unit and sample count.  A run record
and, when traced, the spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

IMPORT_PROBES = 3          # fresh `import zdmn` processes timed per run for setup_s
TAIL_BEYOND = 10           # samples a tail percentile must have beyond it
WORKLOAD_NAMES = ("forward-code", "engine", "exact", "cli")
E2E_UNITS = {"setup_s": "s", "throughput": "1/s", "task_p50_s": "s", "peak_rss_mb": "MB"}
CLI_SUBCOMMANDS = ("validate", "feasible", "bound", "simulate", "bscfb", "gaussian",
                   "generate")
ZDMN_ENV = ("ZDMN_THREADS", "ZDMN_NO_NUMBA")


def _time_child(argv: list, root: Path) -> tuple[float, bytes]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, capture_output=True,
                          check=True, timeout=120)
    return time.perf_counter() - start, proc.stderr


def import_probes(root: Path, sampler) -> list:
    """Stopwatches around fresh `python -c "import zdmn"` processes.  This
    process has imported zdmn already, so the byte-code cache is filled."""
    argv = [sys.executable, "-c", "import zdmn"]
    watches = []
    for _ in range(IMPORT_PROBES):
        with hostspeed.Stopwatch(sampler) as sw:
            subprocess.run(argv, cwd=root, capture_output=True, check=True, timeout=120)
        watches.append(sw)
    return watches


def import_layer_metrics(root: Path) -> dict:
    """Interpreter start, `import zdmn` and `import scipy.stats`, the last two
    from one `python -X importtime` run (cumulative times)."""
    interp, _ = _time_child([sys.executable, "-c", "pass"], root)
    _, err = _time_child([sys.executable, "-X", "importtime", "-c", "import zdmn"], root)
    parsed = []                          # (indent, module, cumulative us)
    for line in err.decode(errors="replace").splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)", line)
        if m:
            parsed.append((len(m.group(2)), m.group(3), int(m.group(1))))
    return {"cli.interp_s": interp,
            "cli.import_s": sum(cum for _i, name, cum in parsed if name == "zdmn") * 1e-6,
            "cli.import_scipy_stats_s": _subtree_us(parsed, "scipy.stats") * 1e-6}


def _subtree_us(parsed: list, package: str) -> int:
    """Cumulative import time of `package` and its submodules.

    `from scipy import stats` goes through scipy's lazy __getattr__, and
    -X importtime then prints no line for scipy.stats itself, only for its
    submodules; so sum every package line whose parent is outside it.  A
    line's parent is the next line printed with a smaller indent.
    """
    inside = lambda name: name == package or name.startswith(package + ".")  # noqa: E731
    stack, total = [], 0
    for indent, name, cum in reversed(parsed):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        if inside(name) and not (stack and inside(stack[-1][1])):
            total += cum
        stack.append((indent, name))
    return total


def machine_record() -> dict:
    import numpy
    import scipy
    import zdmn

    caches = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                             env={**os.environ, "LC_ALL": "C"}).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if "cache" in key.lower():
                caches[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "caches": caches, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "zdmn_backend": zdmn.backend_name()}


def tail(times: list[float]):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it, or None when there are too few samples."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def task_p50(tasks: list[dict]) -> float:
    """Geometric mean over task kinds (labels) of each kind's median time.

    A mix holds kinds that differ in time by up to a hundredfold, and the
    median of all tasks falls where two kinds meet, jumping from one to the
    other between runs; the median of each kind stays put."""
    kinds: dict = {}
    for t in tasks:
        kinds.setdefault(t["label"], []).append(t["seconds"])
    return math.exp(statistics.fmean(math.log(statistics.median(v))
                                     for v in kinds.values()))


def throughput(tasks: list[dict]) -> float:
    """Units completed per second of task time over the whole run; a task
    that raised completed no units."""
    done = sum(t["units"] for t in tasks
               if t["error"] is None or not t["error"].startswith("raised"))
    return done / sum(t["seconds"] for t in tasks)


def measure(wl, seconds: float, tracer, sampler) -> tuple[list, list[dict], int, float]:
    """Set up, then run whole rounds of tasks, one at a time, until `seconds`
    have passed and `wl.min_rounds` rounds have run.  Returns (set-up
    stopwatches, tasks, rounds, elapsed seconds); each task holds its
    stopwatch under "watch"."""
    prep = []
    for _ in range(wl.prepare_repeats):
        with hostspeed.Stopwatch(sampler) as sw:
            wl.prepare()
        prep.append(sw)
    wl.references()
    tasks = []
    begin = time.perf_counter()
    c = 0
    while c < wl.min_rounds or time.perf_counter() - begin < seconds:
        for task in wl.cycle(c):
            if tracer:
                tracer.task = f"{c}.{len(tasks)}"
            with hostspeed.Stopwatch(sampler) as sw:
                try:
                    out = task.call()
                    error = None
                except Exception as exc:  # a failed task is counted, not fatal
                    error = f"raised {exc!r}"
            if error is None:
                error = task.check(out)
            tasks.append({"label": task.label, "round": c, "watch": sw,
                          "units": task.units, "error": error})
        c += 1
    return prep, tasks, c, time.perf_counter() - begin


def summary_lines(wl, e2e: dict, probes, prep, tasks, extra) -> list[str]:
    """Every end-to-end metric by name, with its unit and sample count."""
    times = [t["seconds"] for t in tasks]
    failed = sum(1 for t in tasks if t["error"] is not None)
    tail_s = tail(times)
    lines = [
        f"  setup_s         {e2e['setup_s']:.4f} s    (median of {len(probes)} fresh "
        f"imports + median of {len(prep)} one-time set-ups)",
        f"  throughput      {e2e['throughput']:.4f} {wl.unit}/s    ({wl.unit} completed "
        f"over {sum(times):.2f} s of task time)",
        f"  task_p50_s      {e2e['task_p50_s']:.6f} s    (geometric mean of the median "
        f"of each of {len({t['label'] for t in tasks})} task kinds; {len(times)} tasks)",
        "  task_tail_s     " + (
            f"{tail_s[0]:.6f} s    (p{tail_s[1]:.1f}, {TAIL_BEYOND} of {len(times)} "
            "tasks beyond it)" if tail_s else
            f"omitted    ({len(times)} tasks; needs more than {TAIL_BEYOND})"),
        f"  peak_rss_mb     {e2e['peak_rss_mb']:.1f} MB    "
        f"({'largest child' if wl.name == 'cli' else 'this process'})",
        f"  fail_frac       {failed / len(tasks):.4f} ratio    "
        f"({failed} of {len(tasks)} tasks)",
    ]
    if "bounds.gap_bits" in extra:
        lines.append(f"  bound_gap_bits  {extra['bounds.gap_bits']:.6f} bits    "
                     "(largest reference minus reported cap, over every cut with one)")
    lines += [f"  FAILED {t['label']}: {t['error']}" for t in tasks if t["error"]]
    return lines


def run_workload(args, root: Path) -> int:
    import spans
    import workloads

    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        cpu = hostspeed.pin_to_one_cpu()
        tracer = spans.Tracer() if args.trace else None
        adjust = wl.host_adjusted and not tracer
        sampler = hostspeed.Sampler() if adjust else hostspeed.Unadjusted()
        if tracer:
            tracer.install()
        if adjust:
            sampler.start()
        try:
            probes = import_probes(root, sampler)
            prep, tasks, rounds, elapsed = measure(wl, args.seconds, tracer, sampler)
        finally:
            if tracer:
                tracer.uninstall()
            if adjust:
                sampler.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Every time from here on is at the reference host speed (untraced, on a
    # host-adjusted workload) or as measured; raw times go to the run record.
    raw = {"import_probes_s": [sw.raw for sw in probes],
           "prepare_s": [sw.raw for sw in prep]}
    probes = [sw.adjusted() for sw in probes]
    prep = [sw.adjusted() for sw in prep]
    for t in tasks:
        sw = t.pop("watch")
        t["seconds"], t["raw_s"] = sw.adjusted(), sw.raw
    rss_kind = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    e2e = {"setup_s": statistics.median(probes) + (statistics.median(prep) if prep else 0.0),
           "throughput": throughput(tasks),
           "task_p50_s": task_p50(tasks),
           "peak_rss_mb": resource.getrusage(rss_kind).ru_maxrss / 1024.0}
    extra = wl.layer_metrics()
    failed = sum(1 for t in tasks if t["error"] is not None)
    machine = machine_record()
    machine["pinned_cpu"] = cpu
    lines = [f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
             f"{len(tasks)} tasks in {rounds} rounds, {elapsed:.2f} s on cpu {cpu}"]
    if adjust:
        machine["probe_median_s"] = sampler.median()
        raw_median = statistics.median(t["raw_s"] for t in tasks)
        lines.append(f"  times at the reference host speed: probe median "
                     f"{sampler.median() * 1e3:.3f} ms over {len(sampler.times)} probes, "
                     f"reference {hostspeed.REF_S * 1e3:.3f} ms; raw median task "
                     f"{raw_median:.6f} s")
    lines += summary_lines(wl, e2e, probes, prep, tasks, extra)
    record = {"workload": wl.name, "seed": args.seed, "argv": sys.argv,
              "seconds": args.seconds, "trace": args.trace, "machine": machine,
              "rounds": rounds, "elapsed_s": elapsed, "import_probes_s": probes,
              "prepare_s": prep, "raw": raw, "end_to_end": e2e,
              "task_tail": tail([t["seconds"] for t in tasks]),
              "fail_frac": failed / len(tasks), "tasks": tasks}
    if args.trace:
        layer = layer_metrics(tracer, tasks, elapsed, extra, root)
        record["per_layer"] = layer
        lines += [f"  {k:<34} {v:.6g} {LAYER_UNITS[k]}" for k, v in layer.items()]
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layer.items()}
        tracer.write_csv(out_dir / f"spans-{wl.name}-seed{args.seed}.csv")
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    with open(out_dir / f"record-{wl.name}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": len(tasks),
                      "failed": failed, "metrics": metrics}))
    return 0


LAYER_UNITS = {
    "polar.construct_s": "s", "polar.decode_s": "s", "polar.decode_blocks": "count",
    "polar.encode_s": "s", "polar.block_ok_frac": "ratio",
    "simulate.bscfb_scheme.self_s": "s",
    "simulate.run_trial.self_s": "s", "simulate.run_trial.calls": "count",
    "model.validate_spec_s": "s", "model.validate_spec.calls": "count",
    "simulate.estimate_error.self_s": "s",
    "bounds.grid_hull_s": "s", "bounds.grid_points": "count",
    "bounds.grid_setup_s": "s", "bounds.grid_scan_s": "s",
    "bounds.region_membership_s": "s", "bounds.gap_bits": "bits",
    "simulate.induced_joint_s": "s", "probability.cmi_s": "s",
    "probability.cmi.calls": "count", "probability.compose_channels_s": "s",
    "cli.interp_s": "s", "cli.import_s": "s", "cli.import_scipy_stats_s": "s",
    **{f"cli.{sub}_s": "s" for sub in CLI_SUBCOMMANDS},
    "trace.spans": "count", "trace.overhead_frac": "ratio",
}


def layer_metrics(tracer, tasks, elapsed, extra, root) -> dict:
    """Every per-layer metric; a layer the workload does not call reads 0."""
    import spans

    tot = tracer.totals()
    get = lambda name, key: tot.get(name, {}).get(key, 0)  # noqa: E731
    out = {
        "polar.construct_s": get("polar.construct", "s"),
        "polar.decode_s": get("polar.decode", "s"),
        "polar.decode_blocks": get("polar.decode", "units"),
        "polar.encode_s": get("polar.encode", "s"),
        "polar.block_ok_frac": 0.0,
        "simulate.bscfb_scheme.self_s": get("simulate.bscfb_scheme", "self_s"),
        "simulate.run_trial.self_s": get("simulate.run_trial", "self_s"),
        "simulate.run_trial.calls": get("simulate.run_trial", "calls"),
        "model.validate_spec_s": get("model.validate_spec", "s"),
        "model.validate_spec.calls": get("model.validate_spec", "calls"),
        "simulate.estimate_error.self_s": get("simulate.estimate_error", "self_s"),
        "bounds.grid_hull_s": get("bounds.grid_hull", "s"),
        "bounds.grid_points": get("bounds.grid_scan", "units"),
        "bounds.grid_setup_s": get("bounds.grid_setup", "s"),
        "bounds.grid_scan_s": get("bounds.grid_scan", "s"),
        "bounds.region_membership_s": get("bounds.region_membership", "s"),
        "bounds.gap_bits": 0.0,
        "simulate.induced_joint_s": get("simulate.induced_joint", "s"),
        "probability.cmi_s": get("probability.cmi", "s"),
        "probability.cmi.calls": get("probability.cmi", "calls"),
        "probability.compose_channels_s": get("probability.compose_channels", "s"),
    }
    out.update(import_layer_metrics(root))
    for sub in CLI_SUBCOMMANDS:
        times = [t["seconds"] for t in tasks if t["label"] == f"cli {sub}"]
        out[f"cli.{sub}_s"] = statistics.median(times) if times else 0.0
    out.update(extra)
    out["trace.spans"] = len(tracer.spans)
    out["trace.overhead_frac"] = len(tracer.spans) * spans.span_cost_s() / elapsed
    return out


def run_all(args, root: Path) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=root, timeout=900)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    root = Path.cwd()
    if not (root / "src" / "zdmn" / "__init__.py").is_file():
        print("error: run from the root of a zdmn checkout (no src/zdmn here)",
              file=sys.stderr)
        return 2
    for var in ZDMN_ENV:
        os.environ.pop(var, None)
    os.environ["PYTHONPATH"] = str(root / "src")   # for every child process
    sys.path.insert(0, str(root / "src"))
    if args.workload == "all":
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
