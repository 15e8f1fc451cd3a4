"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from scrambleparse import conllu, projectivity  # noqa: E402

TINY = workloads.Workload("smoke", clauses=1, n_source=12, n_train=6, budget=6,
                          n_test=5, n_lm=40, accuracy_epochs=2)


def _inputs(w, root, seed):
    f = workloads.Files(root)
    workloads.write_inputs(w, f, seed)
    return {Path(p).name: Path(p).read_bytes() for p in workloads.input_files(w, f)}


def test_same_seed_gives_identical_inputs(tmp_path):
    for w in (TINY, dataclasses.replace(TINY, clauses=3)):
        first = _inputs(w, tmp_path / "a", seed=5)
        assert first == _inputs(w, tmp_path / "b", seed=5)
        assert first != _inputs(w, tmp_path / "c", seed=6)


def test_long_generator_emits_valid_projective_trees():
    for seed in range(4):
        tb = workloads.gen_trees(3, 40, "uniform", seed)
        assert len(tb) == 40
        for tree in tb:
            assert conllu.validate_tree(tree, single_root=True) == []
            assert projectivity.is_projective(tree)
            assert workloads.is_projective_tree(tree)
            assert sum(t.deprel == "ccomp" for t in tree.tokens) == 2
            assert tree.tokens[-1].deprel == "punct"
            assert 10 <= len(tree) <= 25


def test_independent_projectivity_check_rejects_crossing_arcs():
    # 1 <- 3 crosses 2 -> 4 (token 2 lies under 1's arc but descends from 4).
    tokens = [conllu.Token(index=1, form="a", head=3, deprel="x"),
              conllu.Token(index=2, form="b", head=4, deprel="x"),
              conllu.Token(index=3, form="c", head=0, deprel="root"),
              conllu.Token(index=4, form="d", head=3, deprel="x")]
    tree = conllu.DepTree(tokens)
    assert not projectivity.is_projective(tree)
    assert not workloads.is_projective_tree(tree)


def test_tree_signature_ignores_order_but_not_arcs():
    src = workloads.gen_trees(1, 1, "sov=1.0", 3)[0]
    # Reverse the linear order: same labelled arcs under an index remapping.
    n = len(src)
    flipped = [dataclasses.replace(t, index=n + 1 - t.index,
                                   head=0 if t.head == 0 else n + 1 - t.head)
               for t in reversed(src.tokens)]
    assert checks.tree_signature(conllu.DepTree(flipped)) == checks.tree_signature(src)
    relabelled = [dataclasses.replace(t, deprel="dep") if t.deprel == "obj" else t
                  for t in src.tokens]
    assert checks.tree_signature(conllu.DepTree(relabelled)) != checks.tree_signature(src)


def test_self_time_on_hand_built_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [["root", 0.0, 10.0, -1, 0],
             ["a", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0],
             ["b", 5.0, 9.0, 0, 0]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_nested_spans_and_restores_functions():
    from scrambleparse import cli, parser

    original = parser.parse_tree
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert cli.parse_tree is parser.parse_tree is not original
        tracer.call("outer", lambda: tracer.call("inner", lambda: None, (), {}), (), {})
    assert cli.parse_tree is parser.parse_tree is original
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0


def test_end_to_end_rates_use_each_stage_calls_median_time_calibrated():
    args = argparse.Namespace(workload="pipeline", seed=1, seconds=0, trace=0)
    bench = run.Bench(args, None, workloads, checks, tracing, reference=None)
    bench.sizes = {p: (10, 60) for s in bench.stages for p in s.inputs}
    n = len(bench.stages)

    def iteration(seconds):
        return {"stages": [{"seconds": seconds(s)} for s in bench.stages]}

    # A slow parse in one of three iterations does not move the medians.
    its = [iteration(lambda s: 1.0), iteration(lambda s: 1.0),
           iteration(lambda s: 5.0 if s.name == "parse" else 1.0)]
    rates = bench.calibrated_rates(its, factor=1.0)
    assert rates["wall_s"] == n * 1.0
    assert rates["permute_sents_per_s"] == 10.0
    assert rates["parse_tokens_per_s"] == 60.0
    assert bench.calibrated_rates(its[1:], factor=1.0)["parse_tokens_per_s"] == 60.0 / 3.0
    # A host running at half speed doubles every time; the factor halves it back.
    slow = bench.calibrated_rates([iteration(lambda s: 2.0)], factor=0.5)
    assert slow == rates


def test_reference_pins_to_an_allowed_cpu_and_scales_by_the_median():
    ref = run.Reference()
    assert ref.pin_quietest_cpu() > 0
    if run.CPUS:
        assert os.sched_getaffinity(0) <= set(run.CPUS)
        os.sched_setaffinity(0, run.CPUS)
    ref.samples = [1.0, 3.0, 2.0]
    assert ref.factor() == run.Reference.NOMINAL_S / 2.0


def _smoke(monkeypatch, tmp_path, capsys, trace):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setitem(workloads.WORKLOADS, "pipeline", TINY)
    code = run.main(["--workload", "pipeline", "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    record = json.loads(next((tmp_path / "work" / "results").glob(f"*trace{trace}.json"))
                        .read_text())
    assert record["accuracy_run"]["epochs"] == 2
    assert set(record["accuracy"]) == set(record["accuracy_run"]["las"])
    return result


def test_smoke_run_prints_every_named_metric(monkeypatch, tmp_path, capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    plain = _smoke(monkeypatch, tmp_path, capsys, trace=0)
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    for m in spec["end_to_end"]:
        assert plain["metrics"][m["name"]]["unit"] == m["unit"]
    traced = _smoke(monkeypatch, tmp_path, capsys, trace=1)
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]
    assert traced["metrics"]["nn.sgd_steps"]["value"] > 0
    assert traced["metrics"]["scramble.variants_built"]["value"] > 0
