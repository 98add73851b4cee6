"""linkchroma benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload empire-maps --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Each operation starts when the previous one returns, in this single
process.  The run does a fixed mix of operations sized so that the timed
region lasts about ``--seconds`` at the baseline commit (see
``workloads.py``); every answer is checked outside the timing.

``--trace 0`` prints the end-to-end metrics, with every time rescaled to a
nominal machine speed by the probe in ``speed.py``.  ``--trace 1`` runs a smaller
fixed list twice: once with an untraced and a traced copy of each
operation, for the tracing overhead, and once more traced, for the
determinism gate.  It then adds the workload's scaling tiers or replay and
prints the per-layer metrics.  Lines before the last are context and
detail; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

import speed
from tracer import SPECS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# Set-up is repeated at least SETUP_MIN_REPEATS times and, while the repeats
# so far took less than SETUP_TARGET_S, up to SETUP_MAX_REPEATS times; its
# median is reported.  A set-up of a twentieth of a second (witness-search
# imports the package and little else) gets enough repeats for a steady
# median, one of two seconds (empire-maps) stays at three.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_TARGET_S = 3.0
LIB_MODULES = ("core", "colour", "construct", "formats", "search", "triangulate", "corpus", "catalogue", "errors")

# Operations and set-ups are timed in CPU time of this thread (user and
# system).  The library is single-threaded and works in memory, so on an
# idle machine this equals the wall time; on a shared host it leaves out
# the time the hypervisor or the kernel hands the CPU to someone else,
# which made single 0.5 s operations up to 1.3x longer in wall time.
CLOCK = time.thread_time

CALLS_PER_OP = [name for name, _, _ in SPECS if name.startswith("core.")]
SLOPE_LAYERS = (
    "colour.heawood_degeneracy_order",
    "colour.heawood_colour_12",
    "colour.is_valid_pair_colouring",
    "core.simple_quotient",
    "core.genus_check",
    "core.Multigraph",
    "core.link_graph",
    "construct.make_degree_faithful",
    "construct.pi_trail_decomposition",
    "construct.inverse_link",
    "construct.seal",
    "formats.dumps",
    "formats.loads",
)
TIER_LAYERS = ("colour.heawood_degeneracy_order", "construct.inverse_link")
TIER_SIZES = (100, 400, 1600, 3200)


def end_to_end_metrics() -> list:
    return [
        ("setup_s", "s", "lower"),
        ("ops_per_s", "1/s", "higher"),
        ("work_per_s", "1/s", "higher"),
        ("op_p50_ms", "ms", "lower"),
        ("peak_rss_mb", "MB", "lower"),
    ]


def per_layer_metrics() -> list:
    """Every per-layer metric a traced run reports, as (name, unit, better)."""
    out = []
    for name, mode, _ in SPECS:
        out.append((f"{name}.calls", "count", "lower"))
        if mode == "timed":
            out.append((f"{name}.s", "s", "lower"))
        out.append((f"{name}.errors", "count", "lower"))
    out += [(f"{name}.calls_per_op", "calls/op", "lower") for name in CALLS_PER_OP]
    out += [
        ("colour.chromatic_number.branch_nodes", "count", "lower"),
        ("colour.chromatic_number.closed_at_root_frac", "ratio", "higher"),
        ("search.exact_pairing.hit_frac", "ratio", "higher"),
        ("search.search_witness.proposals", "count", "lower"),
        ("formats.bytes_written", "bytes", "lower"),
        ("trace.ops", "count", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.determinism_mismatches", "count", "lower"),
    ]
    out += [(f"{layer}.slope", "log/log", "lower") for layer in SLOPE_LAYERS]
    out += [(f"{layer}.s_at_{n}", "s", "lower") for layer in TIER_LAYERS for n in TIER_SIZES]
    return out


# ---------------------------------------------------------------------------
# Library loading and context


def import_lib():
    """Import linkchroma afresh from ``src/`` (dropping any earlier copy, so
    that every set-up repeat pays the import) and return its modules."""
    for name in [k for k in sys.modules if k == "linkchroma" or k.startswith("linkchroma.")]:
        del sys.modules[name]
    importlib.import_module("linkchroma")
    return types.SimpleNamespace(**{m: importlib.import_module(f"linkchroma.{m}") for m in LIB_MODULES})


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def context() -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "linkchroma").glob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "loadavg_at_start": list(os.getloadavg()),
        "src_lines": src_lines,
    }


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Running operations


class Runner:
    """Runs operations of one workload and checks each answer."""

    def __init__(self, wl, lib, expected, out_dir):
        self.wl = wl
        self.lib = lib
        self.expected = expected.get(wl.name, {})
        self.out_dir = out_dir
        self.tracer = None
        self.problems = []

    def _phase(self, phase):
        if self.tracer is not None:
            self.tracer.phase = phase

    def build(self, ops, seed):
        self._phase("setup")
        self.wl.prepare(self.lib, random.Random(seed), ops)
        inputs = [self.wl.build(self.lib, op) for op in ops]
        self._phase(None)
        return inputs

    def run_one(self, op, inp, compare=True):
        """Run and check one operation; returns (latency, work, answer, ok)."""
        self._phase("op")
        t0 = CLOCK()
        try:
            result = self.wl.run(self.lib, inp, self.out_dir)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        latency = CLOCK() - t0
        self._phase(None)
        problems, work, answer = self.check(op, inp, result, compare)
        self.problems.extend(f"{op.key}: {p}" for p in problems)
        return latency, work, answer, not problems

    def run_all(self, ops, inputs, compare=True):
        """Run every operation; returns (latencies, work, answers, failed)."""
        latencies, work, answers = [], [], []
        failed = 0
        for i, op in enumerate(ops):
            inp, inputs[i] = inputs[i], None
            latency, op_work, answer, ok = self.run_one(op, inp, compare)
            latencies.append(latency)
            work.append(op_work)
            answers.append(answer)
            failed += not ok
        return latencies, work, answers, failed

    def check(self, op, inp, result, compare):
        """(problems, work, answer) for one result."""
        if isinstance(result, Exception) and not isinstance(result, self.lib.errors.BudgetExhausted):
            return [f"raised {type(result).__name__}: {result}"], 0, None
        self._phase("check")
        try:
            outcome = self.wl.check(self.lib, op, inp, result)
        except Exception as exc:  # a check that cannot complete is a failure
            return [f"check raised {type(exc).__name__}: {exc}"], 0, None
        finally:
            self._phase(None)
        problems = list(outcome.problems)
        if compare and self.wl.recorded:
            want = self.expected.get(op.key)
            if want is None:
                problems.append("no recorded answer")
            elif want != outcome.answer:
                problems.append(f"answer {outcome.answer!r} differs from the recorded {want!r}")
        return problems, outcome.work, outcome.answer

    def warm_up(self):
        ops = self.wl.warmup()
        inputs = [self.wl.build(self.lib, op) for op in ops]
        _, _, _, failed = self.run_all(ops, inputs, compare=False)
        return failed


def tail(latencies):
    """The latency at the highest percentile with at least ten samples
    beyond it, capped at p99 (on sub-millisecond operations the top 0.1%
    is timer and page-fault noise), with that percentile."""
    xs = sorted(latencies)
    n = len(xs)
    rank = max(1, min(n - 10, math.ceil(0.99 * n)))
    return xs[rank - 1], 100.0 * rank / n


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics


def measure(wl, seed, seconds, out_dir):
    probe = speed.SpeedProbe()
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or (sum(setups) < SETUP_TARGET_S and len(setups) < SETUP_MAX_REPEATS):
        runner = inputs = plan = None  # release the previous repeat's inputs first
        gc.collect()
        probe.sample(3)
        t0 = CLOCK()
        lib = import_lib()
        expected = load_expected()
        plan = wl.plan(random.Random(seed), seconds)
        runner = Runner(wl, lib, expected, out_dir)
        inputs = runner.build(plan, seed)
        warm_failed = runner.warm_up()
        setups.append(CLOCK() - t0)
        probe.sample(3)
    # All set-up repeats share one scale, from every probe around them: a
    # few probes per repeat are too few to follow the speed from one repeat
    # to the next.
    setup_scale = probe.scale(0, len(probe.samples))

    # Inputs held for the whole run are moved out of the collector's view,
    # so its passes during an operation cost what they would in a process
    # holding only that operation's input.
    gc.collect()
    gc.freeze()
    wall0 = time.perf_counter()
    latencies, work, failed, scales = run_probed(runner, plan, inputs, probe)
    wall = time.perf_counter() - wall0
    gc.unfreeze()

    scaled = [lat * k for lat, k in zip(latencies, scales)]
    busy = sum(scaled)
    tail_s, tail_pct = tail(scaled)
    attempted = len(plan) + len(wl.warmup())
    failed += warm_failed
    metrics = {
        "setup_s": statistics.median(setups) * setup_scale,
        "ops_per_s": len(plan) / busy,
        "work_per_s": sum(work) / busy,
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_busy = sum(latencies)
    detail = {
        "workload": wl.name,
        "seed": seed,
        "ops": len(plan),
        "timed_wall_s": wall,
        "probe_median_ms": statistics.median(probe.samples) * 1e3,
        "probes": len(probe.samples),
        "unscaled": {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(plan) / raw_busy,
            "work_per_s": sum(work) / raw_busy,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": tail(latencies)[0] * 1e3,
            "busy_s": raw_busy,
        },
        "setup_repeats_s": setups,
        # Reported here and not as a metric: it does not repeat well enough
        # to carry a bound (see README.md).
        "op_tail_ms": tail_s * 1e3,
        "op_tail_percentile": tail_pct,
        "op_tail_samples": len(latencies),
        "failed_frac": failed / attempted,
        f"{wl.work}_per_s": metrics["work_per_s"],
    }
    return runner, attempted, failed, metrics, detail


def run_probed(runner, ops, inputs, probe):
    """Run every operation with speed probes between them; returns
    (latencies, work, failed, scales), where ``scales[i]`` rescales
    operation i to the probe's nominal speed."""
    latencies, work, starts = [], [], []
    failed = 0
    probe.sample(speed.HALF_WINDOW)
    since = 0.0
    for i, op in enumerate(ops):
        inp, inputs[i] = inputs[i], None
        before = len(probe.samples)
        latency, op_work, _, ok = runner.run_one(op, inp)
        latencies.append(latency)
        work.append(op_work)
        failed += not ok
        since += latency
        if since >= speed.EVERY_S:
            probe.sample()
            since = 0.0
        starts.append(before)
    probe.sample(speed.HALF_WINDOW)
    scales = [probe.scale(b - speed.HALF_WINDOW, b + speed.HALF_WINDOW) for b in starts]
    return latencies, work, failed, scales


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics


def _slope(xs, ys):
    if len(xs) < 2 or any(y <= 0 for y in ys):
        return 0.0
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def measure_traced(wl, seed, out_dir):
    lib = import_lib()
    expected = load_expected()
    tracer = Tracer()
    plan = wl.trace_unit(random.Random(seed))
    n = len(plan)

    runner = Runner(wl, lib, expected, out_dir)
    plain_inputs = runner.build(plan, seed)
    failed = runner.warm_up()
    attempted = len(wl.warmup()) + 3 * n

    # Pass 1 interleaves an untraced and a traced copy of each operation, so
    # that drift in machine speed falls on both sides of the overhead.
    runner.tracer = tracer
    tracer.install(lib)
    try:
        traced_inputs = runner.build(plan, seed)
        plain, traced = ([], [], []), ([], [], [])
        by_kind = {}
        for i, op in enumerate(plan):
            tracer.uninstall()
            runner.tracer = None
            latency, work, answer, ok = runner.run_one(op, plain_inputs[i])
            failed += not ok
            for column, value in zip(plain, (latency, work, answer)):
                column.append(value)
            tracer.install(lib)
            runner.tracer = tracer
            before = {name: tracer.stats[name].calls for name in CALLS_PER_OP}
            latency, work, answer, ok = runner.run_one(op, traced_inputs[i])
            failed += not ok
            for column, value in zip(traced, (latency, work, answer)):
                column.append(value)
            kind = by_kind.setdefault(op.kind, {"ops": 0, **{name: 0 for name in CALLS_PER_OP}})
            kind["ops"] += 1
            for name in CALLS_PER_OP:
                kind[name] += tracer.stats[name].calls - before[name]
        plain_inputs = traced_inputs = None
        snap_b = tracer.snapshot()

        # Pass 2, traced again, for the determinism gate.
        tracer.reset()
        lat_c, work_c, ans_c, f = runner.run_all(plan, runner.build(plan, seed))
        failed += f
        snap_c = tracer.snapshot()

        tiers = []
        for op in wl.extras():
            tracer.reset()
            lat, work, _, f = runner.run_all([op], runner.build([op], seed))
            failed += f
            attempted += 1
            tiers.append((op, lat[0], work[0], tracer.snapshot()))
    finally:
        tracer.uninstall()

    (lat_a, work_a, ans_a), (lat_b, work_b, ans_b) = plain, traced
    counted = {k for k in (*snap_b, *snap_c) if not k.endswith(".s")}
    mismatches = sum(snap_b.get(k, 0) != snap_c.get(k, 0) for k in counted)
    mismatches += sum(a != b or b != c for a, b, c in zip(ans_a, ans_b, ans_c))
    mismatches += sum(a != b or b != c for a, b, c in zip(work_a, work_b, work_c))
    if mismatches:
        runner.problems.append(f"{mismatches} counts or answers differ between passes")
        failed += 1

    metrics = {}
    for name, mode, _ in SPECS:
        metrics[f"{name}.calls"] = snap_b[f"{name}.calls"]
        if mode == "timed":
            metrics[f"{name}.s"] = snap_b[f"{name}.s"]
        metrics[f"{name}.errors"] = snap_b[f"{name}.errors"]
    for name in CALLS_PER_OP:
        metrics[f"{name}.calls_per_op"] = snap_b[f"{name}.calls"] / n
    solves = snap_b["colour.chromatic_number.calls"]
    pairings = snap_b["search.exact_pairing.calls"]
    metrics.update(
        {
            "colour.chromatic_number.branch_nodes": snap_b.get("colour.chromatic_number.branch_nodes", 0),
            "colour.chromatic_number.closed_at_root_frac": (
                snap_b.get("colour.chromatic_number.closed_at_root", 0) / solves if solves else 0.0
            ),
            "search.exact_pairing.hit_frac": (
                snap_b.get("search.exact_pairing.hits", 0) / pairings if pairings else 0.0
            ),
            "search.search_witness.proposals": sum(work_b) if wl.name == "witness-search" else 0,
            "formats.bytes_written": snap_b.get("formats.bytes_written", 0),
            "trace.ops": n,
            "trace.overhead_frac": sum(lat_b) / sum(lat_a) - 1.0,
            "trace.determinism_mismatches": mismatches,
        }
    )

    sized = [(op.n, snap) for op, _, _, snap in tiers if op.n in TIER_SIZES]
    tier_table = {}
    for layer in SLOPE_LAYERS:
        secs = [snap[f"{layer}.s"] for _, snap in sized]
        tier_table[layer] = dict(zip((n for n, _ in sized), secs))
        metrics[f"{layer}.slope"] = _slope([n for n, _ in sized], secs)
    for layer in TIER_LAYERS:
        for size in TIER_SIZES:
            metrics[f"{layer}.s_at_{size}"] = tier_table[layer].get(size, 0.0)

    per_op_kind = {}
    for op, dt, work, snap in tiers:
        per_op_kind[op.key] = {"s": dt, "work": work}
    detail = {
        "workload": wl.name,
        "seed": seed,
        "traced_ops": n,
        "untraced_pass_s": sum(lat_a),
        "traced_pass_s": [sum(lat_b), sum(lat_c)],
        "calls_per_op_by_kind": {
            kind: {name: counts[name] / counts["ops"] for name in CALLS_PER_OP}
            for kind, counts in by_kind.items()
        },
        "extras": per_op_kind,
        "tier_seconds": {k: v for k, v in tier_table.items() if any(v.values())},
    }
    return runner, attempted, failed, metrics, detail


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "linkchroma" / "__init__.py").is_file():
        print(f"error: no linkchroma sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    ctx = context()
    wl = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            runner, attempted, failed, metrics, detail = measure_traced(wl, args.seed, str(out_dir))
            catalogue = per_layer_metrics()
        else:
            runner, attempted, failed, metrics, detail = measure(wl, args.seed, args.seconds, str(out_dir))
            catalogue = end_to_end_metrics()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass

    for problem in runner.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"context": ctx}))
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in catalogue},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
