"""Self-tests of the benchmark's correctness gate.

    python3 -m pytest perfbench -q

A perturbed program output must count as a failed op, and on a small seed
the oracle must agree with the program.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import run
from corpus import generate
from oracle import Oracle, edit_distance, parse_query_stdout


def cold_output(results, query):
    lines = [f"Q {query}"] + [" ".join(map(str, r)) for r in results] + [f"COUNT {len(results)}"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A 3-page corpus on disk plus its index, built by the program."""
    work = tmp_path_factory.mktemp("corpus")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        mp.setattr(run, "PAGES", 3)
        warm = run.QueryWarm(seed=7)
        warm.setup()
    return work, warm


@pytest.fixture()
def cold(small, monkeypatch):
    work, warm = small
    monkeypatch.chdir(work)
    workload = run.QueryCold(seed=7)
    workload.corpus, workload.oracle, workload.queries = warm.corpus, warm.oracle, warm.queries
    return workload


def query_with_matches(workload):
    """First query in the list whose expected results span two lines."""
    for i, q in enumerate(workload.queries):
        expected = workload.oracle.expected(q)
        if len({r[1:3] for r in expected}) >= 2:
            return i, expected
    raise AssertionError("no query with matches on two lines")


def perturbations(results, bump, line):
    """(label, perturbed copy) for each defect the gate must catch; `bump`
    adds one to a result's distance, `line` gives its (doc, line)."""
    a, b = next((i, j) for i in range(len(results)) for j in range(i + 1, len(results))
                if line(results[i]) != line(results[j]))
    reordered = list(results)
    reordered[a], reordered[b] = reordered[b], reordered[a]
    return [("distance off by one", [bump(results[0])] + results[1:]),
            ("dropped match", results[:-1]),
            ("reordered line", reordered)]


def test_edit_distance_matches_known_values():
    assert edit_distance("", "Axg") == 3
    assert edit_distance("AxgA", "AxgA") == 0
    assert edit_distance("AxxgA", "AxgA") == 1
    assert edit_distance("gxA", "Axg") == 2


def test_oracle_agrees_with_program_cold_and_warm(small, cold):
    _, warm = small
    seen = set()
    matched = 0
    for i, q in enumerate(warm.queries):
        if len(seen) == 40:
            break
        if q in seen:
            continue
        seen.add(q)
        # A word the size prefilter rejects has no match, not even itself.
        matched += bool(warm.oracle.expected(q))
        assert cold.check(i, cold.call(i)), q
        assert warm.check(i, warm.call(i)), q
    assert matched >= 20


def test_cold_gate_fails_perturbed_output(cold):
    i, expected = query_with_matches(cold)
    q = cold.query(i)
    assert cold.check(i, (0, cold_output(expected, q)))
    assert not cold.check(i, (1, cold_output(expected, q))), "non-zero exit"
    for label, bad in perturbations(expected, lambda r: (r[0] + 1,) + r[1:], lambda r: r[1:3]):
        assert not cold.check(i, (0, cold_output(bad, q))), label
    truncated = cold_output(expected, q).replace(f"COUNT {len(expected)}", "COUNT 0")
    assert parse_query_stdout(truncated, q) is None


def test_warm_gate_fails_perturbed_results(small):
    _, warm = small
    i, _ = query_with_matches(warm)
    matches = warm.call(i)
    assert warm.check(i, matches)
    for label, bad in perturbations(
        matches,
        lambda m: dataclasses.replace(m, distance=m.distance + 1),
        lambda m: (m.record.doc_id, m.record.line_idx),
    ):
        assert not warm.check(i, bad), label


def test_ingest_gate_fails_wrong_counts_and_boxes(small, monkeypatch):
    work, warm = small
    monkeypatch.chdir(work)
    ingest = run.Ingest(seed=7)
    ingest.corpus, ingest.oracle = warm.corpus, warm.oracle
    code, stdout = ingest.call(0)
    assert ingest.check(0, (code, stdout))
    assert not ingest.check(0, (code, stdout.replace("TOTAL", "TOTAL 1")))
    words = list(warm.corpus.words)
    w = words[5]
    words[5] = dataclasses.replace(w, box=(w.box[0] + 1,) + w.box[1:])
    ingest.oracle = Oracle(words)
    assert not ingest.check(0, (code, stdout))


def test_run_reports_every_metric(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "PAGES", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    for name in run.WORKLOADS:
        plain = run.run(name, 3, 0, trace=False, spans_path=None)
        assert plain["correct"] and plain["failed"] == 0
        assert set(plain["metrics"]) == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in plain["metrics"].values())
        traced = run.run(name, 3, 0, trace=True, spans_path=tmp_path / "spans.tsv.gz")
        assert traced["correct"]
        assert set(traced["metrics"]) == set(run.PER_LAYER)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_generate_is_deterministic(tmp_path):
    a = generate(11, 2, tmp_path / "a")
    b = generate(11, 2, tmp_path / "b")
    assert a.words == b.words
    assert [Path(p).read_bytes() for p in a.page_paths] == [
        Path(p).read_bytes() for p in b.page_paths
    ]
