"""Tests of the benchmark's own code: corpus generator, span arithmetic,
metric names and output checks. Faults are injected here, never in efdp."""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from efdp import autodiff, easyfirst, oracle, represent, treebank
from efdp.config import Config
from efdp.easyfirst import Arc
from efdp.model import ParserModel
from efdp.treebank import is_projective, validate_tree

from perfbench import run, spans, workloads
from perfbench.corpus import CorpusShape, make_corpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHAPE = CorpusShape(n_min=3, n_max=7, n_relations=5)
TINY = dict(word_dim=5, pos_dim=3, vprime_dim=6, sent_hidden=4, sent_layers=1, char_dim=4,
            char_hidden=3, char_layers=1, tree_hidden=4, label_dim=3, mlp_hidden=5)


def tiny_model(sentences, **overrides):
    return ParserModel(Config(seed=3, **{**TINY, **overrides}), represent.build_vocab(sentences))


def test_corpus_is_deterministic_for_a_seed():
    first = make_corpus(7, SHAPE, 30)
    assert first == make_corpus(7, SHAPE, 30)
    assert first != make_corpus(8, SHAPE, 30)
    assert first != make_corpus(7, SHAPE, 30, stream="heldout")
    for sentence in first:
        validate_tree(sentence)
        assert is_projective(sentence)
    # each block of five sentences holds each length 3..7 once
    for i in range(0, 30, 5):
        assert sorted(len(s) for s in first[i : i + 5]) == [3, 4, 5, 6, 7]
    labels = {t.deprel for s in first for t in s}
    assert len(labels) <= SHAPE.n_relations and "root" in labels


def test_self_times_on_a_hand_built_span_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]; e [11, 12] stands alone
    names = ["a", "b", "c", "d", "e"]
    own, calls = spans.self_times(
        name_ids=[0, 1, 2, 3, 4],
        start=[0.0, 1.0, 5.0, 6.0, 11.0],
        end=[10.0, 4.0, 9.0, 7.0, 12.0],
        parent=[-1, 0, 0, 2, -1],
        n_names=len(names),
    )
    assert own.tolist() == [3.0, 3.0, 3.0, 1.0, 1.0]
    assert calls.tolist() == [1, 1, 1, 1, 1]
    # nested spans of one name: [0, 5] holds [1, 4], which holds [2, 3]
    own, calls = spans.self_times([0, 0, 1], [0.0, 1.0, 2.0], [5.0, 4.0, 3.0], [-1, 0, 1], 2)
    assert own.tolist() == [2.0 + 2.0, 1.0] and calls.tolist() == [2, 1]


def test_unattributed_time_is_timed_wall_outside_top_level_spans():
    tracer = spans.Tracer()
    read, score = tracer.names.index("treebank.read"), tracer.names.index("easyfirst.score")
    for nid, t0, t1, parent in ((read, 1.0, 3.0, -1), (score, 1.5, 2.5, 0), (read, 4.0, 5.0, -1),
                                (read, 20.0, 21.0, -1)):
        tracer.name_id.append(nid)
        tracer.start.append(t0)
        tracer.end.append(t1)
        tracer.parent.append(parent)
    tracer.timed(0.0, 6.0)  # the span at 20 s lies outside every timed interval
    assert tracer.unattributed_s() == pytest.approx(6.0 - 2.0 - 1.0)


def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared_e2e == workloads.END_TO_END
    assert declared_layer == spans.per_layer_units()
    for name in [*declared_e2e, *declared_layer, *(w["name"] for w in bench["workloads"])]:
        assert pattern.fullmatch(name) and len(name) <= 64, name
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_malformed_parse_results_are_counted_not_raised(monkeypatch):
    sentences = make_corpus(5, SHAPE, 6)
    model = tiny_model(sentences)
    real_parse = easyfirst.parse

    def faulty_parse(sentence, model):
        arcs = real_parse(sentence, model)
        if sentence.forms == sentences[1].forms:  # a cycle: every token is a head's head
            n = len(sentence)
            return [Arc(i % n + 1, i, "rel00") for i in range(1, n + 1)]
        if sentence.forms == sentences[4].forms:  # a token left without a head
            return arcs[:-1]
        return arcs

    monkeypatch.setattr(easyfirst, "parse", faulty_parse)
    tally = workloads.Tally()
    ((text, gold),) = workloads.raw_chunks(sentences)
    written = workloads.parse_chunk(model, text, gold, tally)
    assert (tally.attempted, tally.failed, len(written)) == (6, 1, 5)
    workloads.check_output(tally, written)
    assert (tally.attempted, tally.failed) == (6, 2)
    # the cycle parsed; arcs_to_rows rejected the gap
    assert [lat is None for lat in tally.latencies] == [False] * 4 + [True, False]
    assert tally.tokens == sum(len(s) for s in sentences)


def test_a_clean_chunk_passes_every_check():
    sentences = make_corpus(5, SHAPE, 6)
    tally = workloads.Tally()
    ((text, gold),) = workloads.raw_chunks(sentences)
    workloads.check_output(tally, workloads.parse_chunk(tiny_model(sentences), text, gold, tally))
    assert (tally.attempted, tally.failed, len(tally.parts)) == (6, 0, 1)
    assert None not in tally.latencies and len(tally.latencies) == 6
    assert all(t.head == 0 for s in treebank.parse_conll(text, validate=False) for t in s)


def test_non_finite_training_loss_is_counted(monkeypatch):
    sentences = make_corpus(5, SHAPE, 4)
    model = tiny_model(sentences)
    real = oracle.Trainer.train_sentence

    def faulty(self, sentence):
        loss = real(self, sentence)
        return math.nan if sentence.forms == sentences[2].forms else loss

    monkeypatch.setattr(oracle.Trainer, "train_sentence", faulty)
    heldout = make_corpus(6, SHAPE, 3)
    tally, updates = workloads.train_cycle(model, sentences, heldout)
    assert (tally.attempted, tally.failed) == (4 + 3, 1)
    assert tally.tokens == sum(len(s) for s in sentences) and len(tally.parts) == 4 + 1
    assert len(tally.latencies) == 3 and updates >= 1


def test_training_that_does_not_learn_fails_the_check(monkeypatch):
    monkeypatch.setattr(autodiff.ParameterStore, "adam_step", lambda self, *args, **kwargs: None)
    uas, las = workloads.learned_scores(Config(seed=1, **TINY), 1)
    assert 0.0 <= las <= uas < workloads.LAS_FLOOR
    run = workloads.Run([workloads.Tally(attempted=3)], [], learned=(uas, las))
    assert (run.attempted, run.failed) == (4, 1)


def test_the_training_check_counts_into_failed():
    def counts(learned):
        run = workloads.Run([workloads.Tally(attempted=5, failed=1)], [], learned=learned)
        return run.attempted, run.failed

    assert counts(None) == (5, 1)
    assert counts((100.0, 100.0)) == (6, 1)
    assert counts((90.0, 40.0)) == (6, 2)
    assert counts((math.nan, math.nan)) == (6, 2)  # training raised


def test_repeat_spreads_set_ups_over_the_run_and_cycles_on_their_models():
    made = []

    def set_up():
        made.append(len(made))
        return made[-1]

    cycles, setup = workloads.repeat(set_up, lambda model: model, seconds=0.0)
    batch = workloads.SETUP_BATCH
    assert len(cycles) == workloads.MIN_CYCLES
    assert len(setup) == len(made) == batch * (workloads.MIN_CYCLES + 1)
    # each cycle runs on the last model of the batch before it
    assert cycles == [batch * k - 1 for k in range(1, workloads.MIN_CYCLES + 1)]


def test_fastest_takes_each_part_at_its_best_cycle():
    assert workloads.fastest([[3.0, 1.0, None], [2.0, 4.0, 5.0]]) == [2.0, 1.0, 5.0]


def test_tracer_counts_layers_and_restores_every_function():
    sentences = make_corpus(5, SHAPE, 3)
    model = tiny_model(sentences)
    originals = (easyfirst.parse, oracle.parse, oracle.is_valid, easyfirst.ActionScorer.scores,
                 ParserModel.__dict__["load"], oracle.encode_sentence)
    with spans.Tracer() as tracer:
        trainer = oracle.Trainer(model)
        for sentence in sentences:
            trainer.train_sentence(sentence)
        trainer.flush()
        easyfirst.parse(sentences[0], model)
    assert originals == (easyfirst.parse, oracle.parse, oracle.is_valid, easyfirst.ActionScorer.scores,
                         ParserModel.__dict__["load"], oracle.encode_sentence)
    values = tracer.metrics(updates=trainer.updates, params=1, overhead_frac=0.0)
    steps = sum(len(s) - 1 for s in sentences) + len(sentences[0]) - 1
    n_rel = model.n_relations
    assert values["easyfirst.score.calls"] == values["easyfirst.attach.calls"] == steps
    assert values["represent.sentence.calls"] == len(sentences) + 1
    assert values["represent.char.calls"] == 0
    assert values["oracle.valid.calls"] == sum(2 * n_rel * k * (k + 1) // 2 for k in
                                               (len(s) - 1 for s in sentences))
    assert values["easyfirst.actions"] == values["oracle.valid.calls"] + 2 * n_rel * (
        len(sentences[0]) - 1) * len(sentences[0]) // 2
    assert values["oracle.train.calls"] == len(sentences) + 1
    assert values["autodiff.backward.calls"] == values["autodiff.adam.calls"] == trainer.updates >= 1
    assert 0.0 < values["easyfirst.window_hit_ratio"] < 1.0
    assert values["autodiff.peak_tape_len"] > 0 and values["autodiff.ops"] > 0
    assert all(np.isfinite(v) for v in values.values())
    # the per-op spans are traced in a cycle of their own, here one parse
    with spans.Tracer(spans.OWN_CYCLE) as own_cycle:
        easyfirst.parse(sentences[0], model)
    own = own_cycle.span_metrics()
    assert 0 < own["autodiff.finite.calls"] <= own_cycle.counts["autodiff.ops"]
    assert set(values) | set(own) == set(spans.per_layer_units())
    assert not set(values) & set(own)


def test_run_refuses_a_directory_without_the_parser_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "parse-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_skips_a_missing_private_function(monkeypatch):
    monkeypatch.delattr(autodiff, "_check_finite")
    with spans.Tracer():
        assert not hasattr(autodiff, "_check_finite")
    assert not hasattr(autodiff, "_check_finite")


@pytest.mark.parametrize("returncode, stdout, status", [
    (0, '{"correct": true}\n', 0),
    (1, '{"correct": false}\n', 1),
    (-9, "", 2),  # killed by a signal
    (-11, "partial output\n", 2),
])
def test_run_all_fails_on_a_workload_without_a_result(monkeypatch, capsys, returncode, stdout, status):
    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, returncode, stdout=stdout)

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    args = argparse.Namespace(seed=1, seconds=1.0, trace=0)
    assert run.run_all(args) == status
    results = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(results) == set(run.WORKLOAD_NAMES)
    assert all((r is None) == (status == 2) for r in results.values())


def test_run_all_counts_a_timeout_as_a_failure(monkeypatch, capsys):
    def fake_run(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    assert run.run_all(argparse.Namespace(seed=1, seconds=1.0, trace=0)) == 2
    assert json.loads(capsys.readouterr().out.strip()) == {name: None for name in run.WORKLOAD_NAMES}
