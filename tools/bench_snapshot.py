"""Paired benchmark record of the checked-out commit against REV, as one JSON file.

    python3 tools/bench_snapshot.py --against REV [--pairs 10] [--workload W ...] [--seconds 15] [--out-dir .]

Run from anywhere inside a checkout.  The committed files of REV are
unpacked from ``git archive`` into a temporary directory (removed on
exit), and each workload of ``perfbench/run.py`` (every one, or those
given by ``--workload``) runs ``--pairs`` alternating pairs of untraced
runs, REV's checkout against this one, at seeds 1 to N;
the side that goes first flips from pair to pair.  Each side then gets one
traced run at seed 0.  It writes ``BENCH_<short-rev>_vs_<REV's short
rev>.json``, adding to that file's workloads if it exists.  The file is
written after each pair, the workload's entry holding its runs, seeds and
first sides so far, so a run that fails or is interrupted loses only its
own pair; the entry is written again once its summaries and traced runs
exist.  A complete entry holds each side's
per-run metrics, and for each end-to-end metric the medians and quartiles
(``statistics.quantiles``, exclusive method) of both sides, the ratio of
the medians, the pairs the change won by the direction ``BENCHMARK.json``
gives, whether the medians differ by more than the parent's interquartile
range, and the verdict against the metric's ``bound`` in ``BENCHMARK.json``
(see ``summary``).  Each run also keeps, from its ``{"detail": ...}``
line, the ``ops_per_s`` before rescaling by the speed probe and the probe's
median, and the same summary is made of the unscaled ``ops_per_s``: a
change in the rescaled metric that the unscaled one does not show comes
from the probe.  It prints that table, under the line counts of
``src/linkchroma/*.py`` on both sides and a note for each workload
without a summary, and under the table each traced
metric counted in calls or calls per operation whose value differs
between the two traced runs, one line per metric such as
``complex-build core.validate_rotation.calls 0 -> 17``, and last the
file's path.  A speed-up shows only when the change wins at least 9 of 10
pairs and the two medians differ by more than the parent's interquartile
range.  One pair of 15 s runs took about 50 s of wall time on a 2-core
x86-64 host with CPython 3.11.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("empire-maps", "complex-build", "small-complexes", "exact-colour", "witness-search")
SEED = 0
TRACED_COUNT_UNITS = ("count", "calls/op")


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True, check=True).stdout.strip()


def short_rev(rev: str = "HEAD") -> str:
    return git("rev-parse", "--short=7", rev)


def src_lines(root: Path = ROOT) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src" / "linkchroma").glob("*.py"))


def run(workload: str, seconds: int, trace: int, seed: int = SEED, root: Path = ROOT) -> dict:
    """The result line of one benchmark run of the checkout at ``root``,
    with the run's ``detail`` line under ``"detail"``."""
    cmd = [
        sys.executable,
        "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"error: {' '.join(cmd[1:])} in {root} exited with {out.returncode}")
    lines = [json.loads(line) for line in out.stdout.strip().splitlines()]
    result = lines[-1]
    result["detail"] = next((line["detail"] for line in lines if "detail" in line), {})
    return result


def summary(runs: dict, metrics: dict, field: str = "metrics") -> dict:
    """Medians, quartiles, ratio, wins and verdict of each metric of
    ``field`` over the paired runs ``runs["parent"][i]`` and
    ``runs["change"][i]``.  ``metrics`` maps each name to its entry in
    ``BENCHMARK.json``'s ``end_to_end``: its ``better`` direction and its
    ``bound``.  A pair won counts the change's run better than the
    parent's, so a tie counts for neither side.  The verdict is ``worse
    than bound`` where the change's median is worse than the parent's by
    more than ``bound`` times the parent's median; else ``unresolved``
    where the parent's interquartile range is wider than that, unless
    every run of the change is better than every run of the parent; else
    ``within bound``."""
    out = {}
    for name, metric in metrics.items():
        values = {side: [r[field][name] for r in runs[side]] for side in ("parent", "change")}
        stats = {}
        for side, xs in values.items():
            q1, median, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            stats[side] = {"median": median, "q1": q1, "q3": q3}
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        allowed = metric["bound"] * abs(parent)
        if sign * (parent - change) > allowed:
            verdict = "worse than bound"
        elif iqr > allowed and not all(sign * (c - p) > 0 for p in values["parent"] for c in values["change"]):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        out[name] = {
            "better": metric["better"],
            **stats,
            "ratio": change / parent if parent else None,
            "wins": wins,
            "pairs": len(values["parent"]),
            "gap_exceeds_parent_iqr": abs(change - parent) > iqr,
            "bound": metric["bound"],
            "verdict": verdict,
        }
    return out


def against(args) -> Path:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    rev, parent = short_rev(), short_rev(args.against)
    path = args.out_dir / f"BENCH_{rev}_vs_{parent}.json"
    ab = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    ab.update({"rev": rev, "against": parent, "python": platform.python_version(), "nproc": os.cpu_count()})
    ab.setdefault("workloads", {})
    tmp = Path(tempfile.mkdtemp(prefix="bench-against-"))
    tree = tmp / parent
    archive = subprocess.run(["git", "archive", "--format=tar", args.against], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tree, filter="data")
    try:
        roots = {"parent": tree, "change": ROOT}
        ab["src_lines"] = {side: src_lines(root) for side, root in roots.items()}
        for workload in args.workload or WORKLOADS:
            runs = {"parent": [], "change": []}
            entry = ab["workloads"][workload] = {"seconds": args.seconds, "seeds": [], "first": [], "runs": runs}
            for seed in range(1, args.pairs + 1):
                lead = "parent" if seed % 2 else "change"
                for side in (lead, "change" if lead == "parent" else "parent"):
                    result = run(workload, args.seconds, 0, seed, roots[side])
                    metrics = {name: m["value"] for name, m in result["metrics"].items()}
                    detail = result["detail"]
                    runs[side].append({
                        "seed": seed,
                        "correct": result["correct"],
                        "metrics": metrics,
                        "unscaled": {"ops_per_s": detail["unscaled"]["ops_per_s"]},
                        "probe_median_ms": detail["probe_median_ms"],
                    })
                entry["seeds"].append(seed)
                entry["first"].append(lead)
                path.write_text(json.dumps(ab, indent=2) + "\n", encoding="utf-8")
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {runs[side][-1]['metrics']['ops_per_s']:.3f} ops/s" for side in ("parent", "change")
                ), flush=True)
            entry.update(
                summary=summary(runs, end_to_end),
                summary_unscaled=summary(runs, {"ops_per_s": end_to_end["ops_per_s"]}, "unscaled"),
                traced={side: run(workload, args.seconds, 1, SEED, root) for side, root in roots.items()},
            )
            path.write_text(json.dumps(ab, indent=2) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print_table(ab)
    return path


def print_table(ab: dict) -> None:
    if "src_lines" in ab:
        lines = ab["src_lines"]
        print(f"src/linkchroma/*.py: {lines['parent']} -> {lines['change']} lines")
    done = {}
    for workload, w in ab["workloads"].items():
        if "summary" in w:
            done[workload] = w
        else:  # written by a call that stopped before the summary
            print(f"{workload}: no summary, {len(w['seeds'])} pair(s) kept from an interrupted run")
    print(
        f"| workload | metric | {ab['against']} median [q1, q3] | {ab['rev']} median [q1, q3] "
        "| ratio | wins | gap > IQR | verdict |"
    )
    print("|---|---|---|---|---|---|---|---|")
    for workload, w in done.items():
        rows = list(w["summary"].items())
        rows += [(f"{name} (unscaled)", s) for name, s in w.get("summary_unscaled", {}).items()]
        for name, s in rows:
            p, c = s["parent"], s["change"]
            print(
                f"| {workload} | {name} | {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] "
                f"| {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] | {s['ratio']:.3f} "
                f"| {s['wins']}/{s['pairs']} | {'yes' if s['gap_exceeds_parent_iqr'] else 'no'} | {s['verdict']} |"
            )
    print(f"traced counts that differ, {ab['against']} -> {ab['rev']}:")
    for workload, w in done.items():
        sides = [w["traced"][side]["metrics"] for side in ("parent", "change")]
        for name in sorted(set(sides[0]) | set(sides[1])):
            p, c = (side.get(name, {}) for side in sides)
            if (p or c)["unit"] in TRACED_COUNT_UNITS and p.get("value") != c.get("value"):
                print(f"{workload} {name} {count_text(p)} -> {count_text(c)}")


def count_text(metric: dict) -> str:
    """A traced count as printed: ``-`` where the run lacks the metric."""
    value = metric.get("value", "-")
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=15, help="timed seconds per untraced run (default 15)")
    parser.add_argument("--out-dir", type=Path, default=ROOT, help="where to write the file (default: the checkout)")
    parser.add_argument("--against", metavar="REV", required=True, help="compare with REV in alternating pairs of runs")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload (default 10)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="only this workload (repeatable)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    print(against(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
