"""``tools/bench_snapshot.py`` summarises paired runs and gives each
end-to-end metric its no-regression verdict against its bound."""

import importlib.util
import io
import json
import tarfile
from pathlib import Path
from types import SimpleNamespace

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_snapshot", _ROOT / "tools" / "bench_snapshot.py")
bench_snapshot = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_snapshot)

HIGHER = {"x": {"better": "higher", "bound": 0.25}}
LOWER = {"x": {"better": "lower", "bound": 0.25}}


def runs(parent: list, change: list) -> dict:
    return {side: [{"metrics": {"x": v}} for v in values] for side, values in (("parent", parent), ("change", change))}


def test_every_end_to_end_metric_has_a_direction_and_a_bound():
    bench = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert bench["end_to_end"]
    for m in bench["end_to_end"]:
        assert m["better"] in ("higher", "lower") and m["bound"] > 0


@pytest.mark.parametrize("metrics", [HIGHER, LOWER])
def test_a_tie_counts_for_neither_side(metrics):
    (s,) = bench_snapshot.summary(runs([10, 10, 10, 10], [10, 11, 9, 10]), metrics).values()
    assert (s["wins"], s["pairs"]) == (1, 4)
    (s,) = bench_snapshot.summary(runs([10, 10], [10, 10]), metrics).values()
    assert s["wins"] == 0 and s["ratio"] == 1 and s["verdict"] == "within bound"


@pytest.mark.parametrize(
    "metrics, parent, change, verdict",
    [
        # the median 30% worse, by the metric's direction
        (HIGHER, [100, 101, 99, 100, 100], [70, 71, 69, 70, 70], "worse than bound"),
        (LOWER, [1.0, 1.01, 0.99, 1.0, 1.0], [1.3, 1.31, 1.29, 1.3, 1.3], "worse than bound"),
        # 5% worse, within a narrow parent spread
        (HIGHER, [100, 101, 99, 100, 100], [95, 96, 94, 95, 95], "within bound"),
        (LOWER, [1.0, 1.01, 0.99, 1.0, 1.0], [1.05, 1.06, 1.04, 1.05, 1.05], "within bound"),
        # 3% worse, but the parent's quartiles are 90% of its median apart
        (HIGHER, [50, 60, 100, 140, 150], [95, 96, 97, 98, 99], "unresolved"),
        (LOWER, [0.5, 0.6, 1.0, 1.4, 1.5], [1.01, 1.02, 1.03, 1.04, 1.05], "unresolved"),
        # as wide, but every change run is better than every parent run
        (HIGHER, [50, 60, 100, 140, 150], [151, 152, 153, 154, 155], "within bound"),
        (LOWER, [0.5, 0.6, 1.0, 1.4, 1.5], [0.4, 0.41, 0.42, 0.43, 0.44], "within bound"),
        # a median worse by more than the bound is worse however wide the spread
        (HIGHER, [10, 60, 100, 140, 150], [20, 21, 22, 23, 24], "worse than bound"),
    ],
)
def test_the_verdict(metrics, parent, change, verdict):
    (s,) = bench_snapshot.summary(runs(parent, change), metrics).values()
    assert s["verdict"] == verdict and s["bound"] == 0.25


def test_a_call_without_against_is_refused(capsys):
    with pytest.raises(SystemExit) as info:
        bench_snapshot.main(["--seconds", "1"])
    assert info.value.code == 2
    assert "the following arguments are required: --against" in capsys.readouterr().err


def test_the_table_prints_each_verdict(capsys):
    workload = {
        "summary": bench_snapshot.summary(runs([100, 101, 99], [70, 71, 69]), HIGHER),
        "traced": {"parent": {"metrics": {}}, "change": {"metrics": {}}},
    }
    bench_snapshot.print_table({"rev": "b", "against": "a", "workloads": {"w": workload}})
    header, _, row, *_ = capsys.readouterr().out.splitlines()
    assert header.endswith("| gap > IQR | verdict |")
    assert row.startswith("| w | x | 100 [99, 101] | 70 [69, 71] | 0.700 | 0/3 |")
    assert row.endswith("| yes | worse than bound |")


def test_against_writes_a_verdict_for_every_end_to_end_metric(monkeypatch, tmp_path, capsys):
    """The paired runs end to end, with each benchmark run and the git
    calls replaced: the parent's checkout is an empty archive."""
    bench = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in bench["end_to_end"]]
    archive = io.BytesIO()
    tarfile.open(fileobj=archive, mode="w").close()

    def fake_run(workload, seconds, trace, seed=0, root=bench_snapshot.ROOT):
        value = 2.0 if root == bench_snapshot.ROOT else 1.0
        return {
            "correct": True,
            "metrics": {} if trace else {name: {"value": value} for name in names},
            "detail": {"unscaled": {"ops_per_s": value}, "probe_median_ms": 1.0},
        }

    monkeypatch.setattr(bench_snapshot, "run", fake_run)
    monkeypatch.setattr(bench_snapshot, "short_rev", lambda rev="HEAD": "change1" if rev == "HEAD" else "parent1")
    monkeypatch.setattr(bench_snapshot.subprocess, "run", lambda *a, **k: SimpleNamespace(stdout=archive.getvalue()))
    bench_snapshot.main(["--against", "p", "--pairs", "2", "--workload", "small-complexes", "--out-dir", str(tmp_path)])
    ab = json.loads((tmp_path / "BENCH_change1_vs_parent1.json").read_text(encoding="utf-8"))
    summary = ab["workloads"]["small-complexes"]["summary"]
    assert sorted(summary) == sorted(names)
    verdicts = {name: s["verdict"] for name, s in summary.items()}
    assert verdicts["ops_per_s"] == "within bound" and verdicts["op_p50_ms"] == "worse than bound"
    assert ab["workloads"]["small-complexes"]["summary_unscaled"]["ops_per_s"]["verdict"] == "within bound"
    assert "| worse than bound |" in capsys.readouterr().out


def test_an_interrupted_against_keeps_every_pair_it_finished(monkeypatch, tmp_path, capsys):
    """A run that exits on the third pair of the second workload leaves the
    first workload complete and two pairs of the second in the file; a
    second call, whose runs all work, completes both and prints the table."""
    bench = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in bench["end_to_end"]]
    archive = io.BytesIO()
    tarfile.open(fileobj=archive, mode="w").close()
    calls = []

    def working_run(workload, seconds, trace, seed=0, root=bench_snapshot.ROOT):
        value = 2.0 if root == bench_snapshot.ROOT else 1.0
        return {
            "correct": True,
            "metrics": {} if trace else {name: {"value": value} for name in names},
            "detail": {"unscaled": {"ops_per_s": value}, "probe_median_ms": 1.0},
        }

    def failing_run(workload, seconds, trace, seed=0, root=bench_snapshot.ROOT):
        calls.append((workload, trace, seed))
        if (workload, trace, seed) == ("exact-colour", 0, 3):
            raise SystemExit("error: perfbench/run.py exited with 1")
        return working_run(workload, seconds, trace, seed, root)

    monkeypatch.setattr(bench_snapshot, "short_rev", lambda rev="HEAD": "change1" if rev == "HEAD" else "parent1")
    monkeypatch.setattr(bench_snapshot.subprocess, "run", lambda *a, **k: SimpleNamespace(stdout=archive.getvalue()))
    argv = ["--against", "p", "--pairs", "4", "--out-dir", str(tmp_path)]
    argv += ["--workload", "small-complexes", "--workload", "exact-colour"]
    path = tmp_path / "BENCH_change1_vs_parent1.json"

    monkeypatch.setattr(bench_snapshot, "run", failing_run)
    with pytest.raises(SystemExit):
        bench_snapshot.main(argv)
    assert calls[-1] == ("exact-colour", 0, 3)
    ab = json.loads(path.read_text(encoding="utf-8"))
    first, second = ab["workloads"]["small-complexes"], ab["workloads"]["exact-colour"]
    assert first["seeds"] == [1, 2, 3, 4] and first["first"] == ["parent", "change"] * 2
    assert [len(first["runs"][side]) for side in ("parent", "change")] == [4, 4]
    assert {"summary", "summary_unscaled", "traced"} <= first.keys()
    assert second["seeds"] == [1, 2] and second["first"] == ["parent", "change"]
    assert [len(second["runs"][side]) for side in ("parent", "change")] == [2, 2]
    assert sorted(second) == ["first", "runs", "seconds", "seeds"]
    capsys.readouterr()
    bench_snapshot.print_table(ab)
    out = capsys.readouterr().out
    assert "exact-colour: no summary, 2 pair(s) kept from an interrupted run" in out
    assert "| small-complexes | ops_per_s |" in out and "| exact-colour |" not in out

    monkeypatch.setattr(bench_snapshot, "run", working_run)
    bench_snapshot.main(argv)
    ab = json.loads(path.read_text(encoding="utf-8"))
    for w in ab["workloads"].values():
        assert w["seeds"] == [1, 2, 3, 4] and {"summary", "summary_unscaled", "traced"} <= w.keys()
    out = capsys.readouterr().out
    assert "no summary" not in out
    assert "| small-complexes | ops_per_s |" in out and "| exact-colour | ops_per_s |" in out
