"""The cocat benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root::

    python3 bench/run.py --workload theorem-q3x5 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, untraced then traced

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``theorem-q3x5`` -- ``cocat enumerate --q0-max 3 --q1-max 5
  --verify-theorem --count-iso --format json`` through ``cli.main``;
* ``enumerate-q3x6`` -- ``finset.enumerate_cocategories(3, 6)``;
* ``hosts-docs`` -- a seeded batch of documents in all four hosts (see
  ``docs.py``) through ``parse_document``, ``check_cocategory``,
  ``classify`` and ``write_document``.

Everything runs in this one process, without threads, one workload per
run.  ``--trace 0`` runs a fixed number of whole iterations of the
workload: as many as fit in ``--seconds`` at the nominal cost of an
iteration in ``NOMINAL_S``, and at least ``MIN_ITERATIONS``.  The count
does not depend on how fast the code under test is, so a faster commit
gets no more samples.  It prints the end-to-end metrics:

* ``wall_s`` -- the fastest iteration's time to its last verdict;
* ``verdict_p50_ms``/``verdict_p95_ms`` -- per item (structure or
  document): its fastest time over the iterations, then the median and
  95th percentile over items;
* ``peak_rss_mb`` -- peak resident set of this process;
* ``ops_ok_frac`` -- share of attempted items that raised no unexpected
  exception (the failed count is the result's ``failed``);
* ``decided_frac`` -- share of classified items with all four flags
  decided;
* ``setup_s`` -- the fastest of ``SETUP_RUNS`` fresh processes' time to
  import ``cocat.cli``, spread over the gaps between iterations.

Times are the fastest of the repeats because other tenants of a shared
machine only ever add time, in swings of 10-80% that last seconds to
minutes.  On a 2-vCPU virtual machine, per-item medians over repeats
varied two to five times as much from run to run as per-item fastest
times did.

``--trace 1`` runs ``TRACE_REPEATS`` untraced and as many traced
iterations, alternating, and prints the per-layer metrics from the
spans of ``spans.py`` of the fastest traced one.  The tracing overhead
is the fastest traced minus the fastest untraced iteration; a note says
whether it exceeds the spread of the untraced iterations.  The spans
go to ``.bench_out/`` and so does every run's result with its
environment.

Every answer is checked against ``oracle.py``; a wrong decided verdict
makes ``correct`` false and the exit code 1.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("theorem-q3x5", "enumerate-q3x6", "hosts-docs")
SETUP_RUNS = 16
# Seconds per iteration on a 2-vCPU x86-64 VM with Python 3.11 at the
# commit that defined the benchmark; only used to fix iteration counts.
NOMINAL_S = {"theorem-q3x5": 5.0, "enumerate-q3x6": 14.0, "hosts-docs": 3.75}
MIN_ITERATIONS = 2
TRACE_REPEATS = 2
SETUP_PROBE = ("import time; t = time.perf_counter(); import cocat.cli; "
               "print(time.perf_counter() - t)")


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def environment(seed: int) -> dict:
    """What makes numbers from different machines and commits comparable."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(runs: int) -> list[float]:
    """Time to import cocat.cli in each of ``runs`` fresh processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    samples = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def iteration_count(name: str, seconds: int) -> int:
    return max(MIN_ITERATIONS, round(seconds / NOMINAL_S[name]))


def run_iterations(workload, count: int) -> tuple[list, list[float]]:
    """``count`` whole iterations, with the set-up samples spread over the
    gaps before, between and after them; stops early on a wrong answer."""
    done, setup = [], []
    for gap in range(count + 1):
        setup += measure_setup(SETUP_RUNS * (gap + 1) // (count + 1)
                               - SETUP_RUNS * gap // (count + 1))
        if gap == count or (done and done[-1].problems):
            return done, setup
        gc.collect()
        done.append(workload.iterate())


def end_to_end(iterations: list, setup: list[float]) -> dict:
    per_item = [min(times) for times in zip(*(it.verdicts for it in iterations))]
    cuts = statistics.quantiles(per_item, n=100) if len(per_item) > 1 else per_item * 99
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    classified = sum(it.classified for it in iterations)
    decided = sum(it.decided for it in iterations)
    return {
        "wall_s": min(it.wall for it in iterations),
        "verdict_p50_ms": cuts[49] * 1e3,
        "verdict_p95_ms": cuts[94] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_frac": 1 - failed / attempted,
        "decided_frac": decided / classified if classified else 1.0,
        "setup_s": min(setup),
    }


def source_lines() -> dict:
    counts = {}
    for path in sorted((SRC / "cocat").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            counts[path.stem] = sum(1 for _ in fh)
    return counts


def per_layer(tr, traced, untraced_wall: float, names) -> dict:
    """Every declared per-layer metric; zero where the layer did no work."""
    counts = tr.counts
    triples = counts["finset.enumerate.lri_triples"]
    found = counts["finset.enumerate.found"]
    candidates = counts["core.coinverse.candidates"]
    hits = counts["core.coinverse.hits"]
    values = {
        "finset.enumerate.lri_triples": triples,
        "finset.enumerate.found": found,
        "finset.enumerate.yield_ratio": found / triples if triples else 0.0,
        "core.coinverse.candidates": candidates,
        "core.coinverse.hit_ratio": hits / candidates if candidates else 0.0,
        "trace.wall_s": traced.wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced.wall - untraced_wall,
        "trace.spans": tr.opened,
    }
    for layer, seconds in tr.layer_self_seconds().items():
        values[f"{layer}.self_s"] = seconds
    lines = source_lines()
    for name in names:
        if name in values:
            continue
        if name.startswith("src.lines."):
            module = name[len("src.lines."):]
            values[name] = sum(lines.values()) if module == "total" else lines.get(module, 0)
        elif name.endswith(".calls") and name not in counts:
            values[name] = tr.ncalls(name[:-len(".calls")])
        elif name.endswith(".s"):
            values[name] = tr.seconds(name[:-len(".s")])
        else:
            values[name] = counts[name]
    return values


def write_out(name: str, payload: dict) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def run_one(args) -> int:
    import workloads
    from spans import Tracer, instrument

    units = _declared()[args.trace]
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if getattr(workload, "mix", None):
        print("mix " + json.dumps(workload.mix, sort_keys=True))

    if args.trace:
        untraced, traced = [], []
        for _ in range(TRACE_REPEATS):
            gc.collect()
            untraced.append(workload.iterate())
            tr = Tracer()
            instrument(tr)
            try:
                gc.collect()
                traced.append((workload.iterate(tr), tr))
            finally:
                tr.restore()
        iterations = untraced + [it for it, _ in traced]
        fastest, tr = min(traced, key=lambda pair: pair[0].wall)
        values = per_layer(tr, fastest, min(it.wall for it in untraced), units)
        write_out(f"{args.workload}-seed{args.seed}-spans.json", {"env": env, **tr.dump()})
        walls = [it.wall for it in untraced]
        notes = {"untraced_walls_s": walls,
                 "traced_walls_s": [it.wall for it, _ in traced],
                 "trace_overhead_resolved":
                     abs(values["trace.overhead_s"]) > max(walls) - min(walls)}
    else:
        iterations, setup = run_iterations(
            workload, iteration_count(args.workload, args.seconds))
        values = end_to_end(iterations, setup)
        notes = {"iteration_walls_s": [it.wall for it in iterations],
                 "verdict_samples": len(iterations[0].verdicts),
                 "setup_samples_s": setup}

    problems = [p for it in iterations for p in it.problems]
    errors = sum((it.errors for it in iterations), Counter())
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    if sorted(values) != sorted(units):
        mismatch = sorted(set(values) ^ set(units))
        raise RuntimeError(f"metrics {mismatch} disagree with BENCHMARK.json")

    for key, value in notes.items():
        print(f"note {key} = {value}")
    for key, n in sorted(errors.items()):
        print(f"failed {n} x {key}")
    print(f"note ops_failed_frac = {failed / attempted:.6f} ({failed} of {attempted})")
    for problem in problems[:20]:
        print(f"WRONG {problem}")
    for name, unit in units.items():
        print(f"metric {name} = {values[name]} {unit}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    write_out(f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              {"env": env, "mix": getattr(workload, "mix", None), "notes": notes,
               "errors": errors, "problems": problems, **result})
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    traces = (0, 1) if args.trace is None else (args.trace,)
    for name in WORKLOAD_NAMES:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(f"[{name} trace={trace}] {line}")
            sys.stderr.write(proc.stderr)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"[{name} trace={trace}] no result, exit {proc.returncode}")
                merged["correct"] = False
                status = proc.returncode or 1
                continue
            status = status or proc.returncode
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cocat" / "__init__.py").is_file():
        print(f"cocat sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.trace is None:
        args.trace = 0
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
