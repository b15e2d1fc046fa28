"""The benchmark recorder's aggregation, on canned run lines: no benchmark
runs here."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "benchrec.py"
_SPEC = importlib.util.spec_from_file_location("benchrec", _PATH)
benchrec = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchrec)

SPEC = {
    "run_seconds": 30,
    "workloads": [{"name": "stream"}, {"name": "offline"}],
    "end_to_end": [
        {"name": "latency_ms", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    ],
}


def line(latency, ops, failed=0):
    """One run's last line, as wuwbench/run.py prints it."""
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"latency_ms": {"value": latency, "unit": "ms"},
                        "ops_per_s": {"value": ops, "unit": "1/s"}}}


def pairs(workload, base, change):
    return [{"workload": workload, "seed": i, "first": "base" if i % 2 == 0 else "change",
             "base": b, "change": c} for i, (b, c) in enumerate(zip(base, change))]


class TestCompare:
    def test_quartiles_interpolate_between_order_statistics(self):
        assert benchrec._quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
        assert benchrec._quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
        assert benchrec._quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_lower_is_better_wins_and_bound(self):
        m = benchrec.compare([10, 10, 10, 10], [9, 11, 10, 9], "lower", 0.25)
        assert (m["wins"], m["losses"], m["pairs"]) == (2, 1, 4)
        assert m["base"]["median"] == 10 and m["change"]["median"] == 9.5
        assert m["worse_by"] == pytest.approx(-0.05) and m["verdict"] == "within"
        m = benchrec.compare([10, 10, 10], [13, 13, 13], "lower", 0.25)
        assert m["worse_by"] == pytest.approx(0.3) and m["verdict"] == "worse"

    def test_higher_is_better_wins_and_bound(self):
        m = benchrec.compare([100, 100, 100], [110, 90, 120], "higher", 0.25)
        assert (m["wins"], m["losses"]) == (2, 1)
        assert m["worse_by"] == pytest.approx(-0.1) and m["verdict"] == "within"
        m = benchrec.compare([100, 100, 100], [70, 70, 70], "higher", 0.25)
        assert m["worse_by"] == pytest.approx(0.3) and m["verdict"] == "worse"

    def test_base_spread_wider_than_the_bound_is_unresolved(self):
        base = [5.0, 10.0, 15.0, 20.0]  # quartiles 8.75 and 16.25: 0.6 of the median
        m = benchrec.compare(base, [20.0, 20.0, 20.0, 20.0], "lower", 0.25)
        assert m["base_iqr_share"] == pytest.approx(7.5 / 12.5)
        assert m["verdict"] == "unresolved"
        # unless every change run reads better than every base run
        m = benchrec.compare(base, [1.0, 2.0, 3.0, 4.0], "lower", 0.25)
        assert m["verdict"] == "within"


class TestAggregate:
    def test_summary_per_workload_and_metric(self):
        runs = (pairs("stream", [line(12, 640), line(13, 630), line(12.5, 650)],
                      [line(12, 645), line(12.5, 600, failed=1), line(12.2, 660)])
                + pairs("offline", [line(16, 140), line(17, 150)],
                        [line(15, 145), line(16, 150)]))
        summary = benchrec.aggregate(runs, SPEC)
        assert list(summary) == ["stream", "offline"]
        stream = summary["stream"]
        assert stream["change"] == {"incorrect": 1, "failed": 1, "attempted": 30}
        assert stream["base"] == {"incorrect": 0, "failed": 0, "attempted": 30}
        lat = stream["metrics"]["latency_ms"]
        assert lat["base"]["values"] == [12, 13, 12.5] and lat["change"]["median"] == 12.2
        assert (lat["wins"], lat["losses"], lat["pairs"]) == (2, 0, 3)
        ops = summary["offline"]["metrics"]["ops_per_s"]
        assert (ops["wins"], ops["losses"], ops["pairs"]) == (1, 0, 2)

    def test_record_alternates_which_side_runs_first(self, monkeypatch, tmp_path):
        calls = []

        def fake_run(tree, workload, seed, seconds, env):
            calls.append((tree.name, workload, seed, seconds))
            return line(10.0 + seed, 100.0)

        monkeypatch.setattr(benchrec, "run_once", fake_run)
        got = benchrec.record(tmp_path / "base", tmp_path / "change", SPEC, [3, 4, 5], 2.0,
                              {"base": {}, "change": {}})
        assert [p["first"] for p in got] == ["base", "change", "base"] * 2
        assert [c[0] for c in calls[:6]] == ["base", "change", "change", "base",
                                              "base", "change"]
        assert {(w, s) for _, w, s, _ in calls} == {(w, s) for w in ("stream", "offline")
                                                    for s in (3, 4, 5)}
        assert all(c[3] == 2.0 for c in calls)


    def test_both_sides_import_from_source_alike(self, monkeypatch, tmp_path):
        envs = {"base": [], "change": []}

        def fake_run(cmd, cwd, env, **kwargs):
            envs[Path(cwd).name].append(env)
            prefix = Path(env["PYTHONPYCACHEPREFIX"])
            assert prefix.is_dir() and not any(prefix.iterdir())
            return subprocess.CompletedProcess(cmd, 0, json.dumps(line(10.0, 100.0)) + "\n", "")

        monkeypatch.setattr(benchrec.subprocess, "run", fake_run)
        benchrec.record(tmp_path / "base", tmp_path / "change", SPEC, [0, 1], 2.0,
                        benchrec.side_envs(tmp_path / "cache"))
        assert len(envs["base"]) == len(envs["change"]) == 4
        base, change = envs["base"][0], envs["change"][0]
        assert all(env == base for env in envs["base"])
        assert all(env == change for env in envs["change"])
        assert base["PYTHONDONTWRITEBYTECODE"] == change["PYTHONDONTWRITEBYTECODE"] == "1"
        # the same environment but for each side's own cache prefix
        assert base.pop("PYTHONPYCACHEPREFIX") != change.pop("PYTHONPYCACHEPREFIX")
        assert base == change

    def test_the_machine_block_states_the_bytecode_mode(self):
        assert benchrec.machine()["bytecode"] == benchrec.BYTECODE_MODE


def full_record():
    runs = pairs("stream", [line(12, 640), line(13, 630)], [line(12, 645), line(12.5, 600)])
    return {"schema": benchrec.SCHEMA, "base": "a" * 40, "change": "b" * 40, "seeds": [0, 1],
            "seconds": 2.0, "machine": {"nproc": 2}, "pairs": runs,
            "summary": benchrec.aggregate(runs, SPEC)}


class TestCheckRecord:
    def test_a_written_record_passes(self):
        rec = json.loads(json.dumps(full_record()))  # as read back from the file
        benchrec.check_record(rec)

    @pytest.mark.parametrize("damage", ["key", "schema", "first", "pairs", "verdict"])
    def test_a_malformed_record_is_refused(self, damage):
        rec = full_record()
        if damage == "key":
            del rec["machine"]
        elif damage == "schema":
            rec["schema"] = benchrec.SCHEMA + 1
        elif damage == "first":
            rec["pairs"][0]["first"] = "both"
        elif damage == "pairs":
            rec["pairs"].pop()
        else:
            rec["summary"]["stream"]["metrics"]["latency_ms"]["verdict"] = "fine"
        with pytest.raises(ValueError):
            benchrec.check_record(rec)
