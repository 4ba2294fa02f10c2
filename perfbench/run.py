"""Seeded benchmark of heckelat: three workloads run through the library's public API and its CLI.

    python3 perfbench/run.py --workload local-series --seed 1 --seconds 36 --trace 0

A run repeats cycles of set-up (imports, root data with Weyl enumeration, task
generation, reference tables) and one pass over the seeded task list until
--seconds is used up; each set-up is timed. Spreading the set-ups over the run
keeps one slow stretch of the host from moving all of them. Every task checks
its exact identity; the hashes of its canonical results must match the first
pass and, when recorded, perfbench/digests.json. With --trace 1 every cycle
adds a traced pass, and the per-layer metrics of perfbench/tracer.py are
reported instead of the end-to-end ones; the spans go to perfbench/out/.
Reference tables are built as plain data in an import of heckelat that is
dropped before the import the passes run on.

Times are scaled to a reference host speed: calibrate() times a fixed piece of
standard-library work before the first task of a pass and after every
CALIBRATE_EVERY tasks, and a task's (or set-up's) time is multiplied by
CALIBRATION_REF_S over the mean of the calibrations around it. Each task's time
is then its median over the passes. wall_s is the sum of the per-task times,
i.e. the time to finish the task list once; task_ms.p50 and task_ms.p90 are
percentiles of the same per-task times; setup_s is the median of the set-ups.
Per-layer times are scaled by the median calibration ratio of their traced pass.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT_DIR = HERE / "out"
MODULES = ("qfield", "linalg", "rootdata", "cones", "charring", "hecke", "intertwine", "padic", "weylids", "globalsl2", "cli")

# Host speed on shared machines drifts by up to 2x for minutes at a time. Every time is
# therefore scaled by an interleaved calibration: seconds at the speed at which calibrate()
# takes CALIBRATION_REF_S (its median on the 2-core Python 3.11.7 host the benchmark was tuned on).
CALIBRATION_REF_S = 0.0072
CALIBRATE_EVERY = 8

END_TO_END_UNITS = {"wall_s": "s", "task_ms.p50": "ms", "task_ms.p90": "ms", "setup_s": "s", "peak_rss_mib": "MiB"}


class SetupError(RuntimeError):
    pass


def import_program() -> SimpleNamespace:
    """Import heckelat afresh from src/ (dropping earlier imports, so process-global state starts empty)."""
    src = ROOT / "src"
    if not (src / "heckelat" / "__init__.py").is_file():
        raise SetupError(f"no heckelat sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "heckelat" or n.startswith("heckelat.")]:
        del sys.modules[name]
    pkg = importlib.import_module("heckelat")
    if Path(pkg.__file__).resolve().parent != (src / "heckelat").resolve():
        raise SetupError(f"imported heckelat from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{name: importlib.import_module(f"heckelat.{name}") for name in MODULES})


@dataclass
class Env:
    m: SimpleNamespace
    rd: dict
    tasks: list = field(default_factory=list)
    ref: dict = field(default_factory=dict)


def setup(workload: str, seed: int) -> Env:
    # Reference tables are built as plain data in an import that is dropped before the one the
    # passes run on, so no cache the program fills while building them is warm in a pass.
    plain_ref = workloads.build_references(workload, import_program())
    m = import_program()
    if not isinstance(getattr(m.hecke, "_CONE_MEMO", None), dict):
        raise SetupError("heckelat.hecke._CONE_MEMO is missing or not a dict: passes could not start cold")
    env = Env(m, {name: m.rootdata.load_root_datum(name) for name in workloads.DATA[workload]})
    for rd in env.rd.values():
        # construct every parabolic once so the root data's subgroup caches are warm for every pass
        for J in workloads.all_subsets(rd.n_simple):
            m.rootdata.ParabolicType(rd, J)
    rank = {name: (rd.rank, rd.n_simple) for name, rd in env.rd.items()}
    env.tasks = workloads.build_tasks(workload, seed, rank)
    env.ref = workloads.bind_references(workload, env, plain_ref)
    return env


@dataclass
class PassResult:
    wall_s: float  # as measured, calibrations included
    task_s: list  # scaled to the reference speed
    hashes: list
    ok: list
    errors: list
    speed: list = field(default_factory=list)  # reference calibration time over the measured one, per block


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def calibrate() -> float:
    """Seconds taken by a fixed piece of interpreter work that uses the standard library only, never heckelat.

    The work mixes tuple-keyed dict updates, Fraction sums and small-integer
    polynomial products: on the tuning host, when the host slowed down, the
    dict part slowed by more than the cones-weyl-oracle tasks and the polynomial
    part by less than the local-series tasks, so the mix sits between them. The
    garbage collector is off while it runs, so the reading does not depend on
    the heap the program leaves behind, only on the host's speed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc: dict = {}
        for i in range(2000):
            key = tuple((i * k) % 97 for k in range(6))
            acc[key] = acc.get(key, 0) + sum(key)
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(i, i + 3)
        for _ in range(20):
            poly = (1,)
            for _ in range(20):  # powers of a fixed polynomial, truncated, as plain int lists
                out = [0] * (len(poly) + 5)
                for i, x in enumerate((1, -1, 2, 0, 3, -1)):
                    for j, y in enumerate(poly):
                        out[i + j] += x * y
                poly = tuple(out[:12])
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def run_pass(env: Env, tracer=None) -> PassResult:
    """One pass over the task list; a task that raises counts as failed and the pass goes on.

    task_s holds each task's time scaled to the reference host speed: the
    calibration runs before and after every CALIBRATE_EVERY tasks, and a task's
    time is multiplied by CALIBRATION_REF_S over the mean of those two readings.
    """
    env.m.hecke._CONE_MEMO.clear()  # every pass sees the cold memo a fresh process sees
    out = PassResult(0.0, [], [], [], [])
    start = time.perf_counter()
    before = calibrate()
    for block in range(0, len(env.tasks), CALIBRATE_EVERY):
        raw = []
        for i in range(block, min(block + CALIBRATE_EVERY, len(env.tasks))):
            _kind, fn, args = env.tasks[i]
            if tracer is not None:
                tracer.task = i
            t0 = time.perf_counter()
            try:
                ok, text = fn(env, *args)
                err = None
            except Exception as e:  # a task that raises is a failed task run, counted by type; the pass goes on
                ok, text, err = False, f"raised {type(e).__name__}", type(e).__name__
            raw.append(time.perf_counter() - t0)
            out.ok.append(bool(ok))
            out.hashes.append(_hash(text))
            out.errors.append(err)
        after = calibrate()
        speed = CALIBRATION_REF_S / ((before + after) / 2)
        out.task_s.extend(t * speed for t in raw)
        out.speed.append(speed)
        before = after
    out.wall_s = time.perf_counter() - start
    return out


def load_digest(workload: str, seed: int):
    if not DIGESTS.is_file():
        return None
    entry = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    return entry["tasks"].split() if entry else None


def digest_of(hashes: list) -> str:
    return hashlib.sha256(" ".join(hashes).encode()).hexdigest()


def count_failures(passes: list, expected: list) -> tuple[int, dict]:
    """Failed task runs: identity false, raised, or a result hash that differs from the expected one."""
    failed, errors = 0, {}
    for p in passes:
        for i, (ok, h, err) in enumerate(zip(p.ok, p.hashes, p.errors)):
            if not ok or h != expected[i]:
                failed += 1
            if err:
                errors[err] = errors.get(err, 0) + 1
    return failed, errors


def check_passes(passes: list, recorded) -> tuple[int, dict]:
    """Failed task runs against the recorded hashes, or against the first pass's when the seed has none.

    When the recorded hashes are for another number of tasks, no task run can be
    checked against them, so every task run counts as failed.
    """
    if recorded is None:
        return count_failures(passes, passes[0].hashes)
    if len(recorded) != len(passes[0].hashes):
        print(f"recorded digest has {len(recorded)} tasks, the task list {len(passes[0].hashes)}: every task run fails",
              file=sys.stderr)
        return sum(len(p.ok) for p in passes), {}
    return count_failures(passes, recorded)


def percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def task_medians(passes: list) -> list:
    """Each task's median latency over the passes, in seconds at the reference speed."""
    return [statistics.median(times) for times in zip(*(p.task_s for p in passes))]


@dataclass
class Run:
    env: Env = None
    setup_s: list = field(default_factory=list)
    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    per_layer: list = field(default_factory=list)


def run_cycles(workload: str, seed: int, seconds: float, tracer=None) -> Run:
    """Set-up and pass cycles until the time is used up; with a tracer, each cycle adds a traced pass."""
    run = Run()
    begin = time.perf_counter()
    while True:
        run.env = None
        gc.collect()  # free the previous cycle's modules now, so peak RSS does not depend on when the collector runs
        t0 = time.perf_counter()
        before = calibrate()
        t1 = time.perf_counter()
        run.env = setup(workload, seed)
        t2 = time.perf_counter()
        run.setup_s.append((t2 - t1) * CALIBRATION_REF_S / ((before + calibrate()) / 2))
        run.plain.append(run_pass(run.env))
        if tracer is not None:
            tracer.reset()
            tracer.install(run.env.m)
            try:
                run.traced.append(run_pass(run.env, tracer))
            finally:
                tracer.uninstall()
            run.per_layer.append(tracer.metrics())
        now = time.perf_counter()
        if now - begin + (now - t0) > seconds:  # the next cycle would overrun --seconds
            return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run time, set-ups included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store this seed's task hashes in digests.json")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    try:
        run = run_cycles(args.workload, args.seed, args.seconds, tracer)
    except SetupError as e:
        print(f"set-up failed: {e}", file=sys.stderr)
        return 2
    plain, traced = run.plain, run.traced

    recorded = load_digest(args.workload, args.seed)
    attempted = sum(len(p.ok) for p in plain + traced)
    failed, errors = check_passes(plain + traced, recorded)
    if args.record:
        record_digest(args.workload, args.seed, plain[0].hashes)

    if tracer is None:
        medians = task_medians(plain)
        latencies_ms = [t * 1000 for t in medians]
        values = {
            "wall_s": sum(medians),
            "task_ms.p50": statistics.median(latencies_ms),
            "task_ms.p90": percentile(latencies_ms, 90),
            "setup_s": statistics.median(run.setup_s),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        metrics = tracer_mod.median_metrics(run.per_layer)
        tracer_mod.scale_times(metrics, statistics.median(s for p in traced for s in p.speed))
        overhead = sum(task_medians(traced)) / sum(task_medians(plain))
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "tasks_per_pass": len(run.env.tasks),
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_wall_s": [round(p.wall_s, 3) for p in plain],
        "host_speed": statistics.median(s for p in plain for s in p.speed),
        "setup_s": [round(t, 3) for t in run.setup_s],
        "digest": digest_of(plain[0].hashes),
        "digest_recorded": recorded is not None,
        "errors": errors,
    }
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def record_digest(workload: str, seed: int, hashes: list) -> None:
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    data.setdefault(workload, {})[str(seed)] = {"digest": digest_of(hashes), "tasks": " ".join(hashes)}
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
