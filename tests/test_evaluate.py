import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from efdp import cli
from efdp.errors import DataError
from efdp.evaluate import EvalResult, ablation_report, format_records, score
from efdp.synthetic import random_sentence, toy_corpus
from efdp.treebank import Sentence, Token, write_conll_file
from helpers import TINY

ROOT = Path(__file__).resolve().parents[1]


def sentence_from(heads, rels, pos=None):
    tokens = tuple(
        Token(i + 1, f"w{i}", (pos[i] if pos else "N"), heads[i], rels[i])
        for i in range(len(heads))
    )
    return Sentence(tokens)


def arcs_from(heads, rels):
    return list(zip(heads, rels))


def test_perfect_prediction_scores_100():
    gold = [sentence_from([2, 0], ["nsubj", "root"])]
    predicted = [arcs_from([2, 0], ["nsubj", "root"])]
    result = score(gold, predicted)
    assert result.uas == 100.0 and result.las == 100.0
    assert result.tokens == 2


def test_hand_counted_partial_credit():
    # 5 tokens, 4 correct heads, 3 of those also carry the right label
    gold = [sentence_from([2, 0, 5, 5, 2], ["nsubj", "root", "det", "nmod", "dobj"])]
    predicted = [
        arcs_from([2, 0, 5, 5, 3], ["nsubj", "root", "det", "iobj", "dobj"])
    ]
    result = score(gold, predicted)
    assert result.uas == pytest.approx(80.0)
    assert result.las == pytest.approx(60.0)


def test_score_is_permutation_invariant():
    rng = np.random.default_rng(0)
    gold = [random_sentence(rng) for _ in range(6)]
    predicted = [
        arcs_from(
            [int(rng.integers(0, len(s) + 1)) for _ in s],
            [s[i].deprel for i in range(len(s))],
        )
        for s in gold
    ]
    forward = score(gold, predicted)
    order = [3, 1, 5, 0, 4, 2]
    shuffled = score([gold[i] for i in order], [predicted[i] for i in order])
    assert forward.uas == shuffled.uas and forward.las == shuffled.las


@given(st.integers(0, 100_000))
def test_las_never_exceeds_uas(seed):
    rng = np.random.default_rng(seed)
    gold = [random_sentence(rng, n_min=1, n_max=6)]
    n = len(gold[0])
    predicted = [
        arcs_from(
            [int(rng.integers(0, n + 1)) for _ in range(n)],
            [f"r{int(rng.integers(0, 3))}" for _ in range(n)],
        )
    ]
    result = score(gold, predicted)
    assert 0.0 <= result.las <= result.uas <= 100.0


def test_score_agrees_with_token_loop():
    rng = np.random.default_rng(9)
    gold = [random_sentence(rng, n_min=2, n_max=7) for _ in range(10)]
    predicted = []
    for s in gold:
        n = len(s)
        predicted.append(
            arcs_from(
                [int(rng.integers(0, n + 1)) for _ in range(n)],
                [rng.choice(["nsubj", "det", "root"]) for _ in range(n)],
            )
        )
    result = score(gold, predicted)
    total = heads = labeled = 0
    for s, rows in zip(gold, predicted):
        for t in s:
            head, rel = rows[t.index - 1]
            total += 1
            if head == t.head:
                heads += 1
                if rel == t.deprel:
                    labeled += 1
    assert result.uas == pytest.approx(100.0 * heads / total)
    assert result.las == pytest.approx(100.0 * labeled / total)
    assert (result.correct_heads, result.correct_labeled) == (heads, labeled)


def test_punctuation_exclusion_by_pos_tag():
    gold = [sentence_from([2, 0, 2], ["punct", "root", "dobj"], pos=["CH", "V", "N"])]
    predicted = [arcs_from([3, 0, 2], ["punct", "root", "dobj"])]
    plain = score(gold, predicted)
    assert plain.tokens == 3 and plain.uas == pytest.approx(200 / 3)
    excl = score(gold, predicted, exclude_punct=True)
    assert excl.tokens == 2 and excl.uas == 100.0


def test_misalignment_is_an_error():
    gold = [sentence_from([0], ["root"])]
    with pytest.raises(DataError):
        score(gold, [])
    with pytest.raises(DataError, match="misaligned"):
        score(gold, [arcs_from([0, 1], ["root", "x"])])
    with pytest.raises(DataError, match="misaligned"):
        score([sentence_from([2, 0], ["a", "root"])], [arcs_from([0], ["a"])])


def test_empty_map_renders_header_only():
    report = ablation_report({})
    lines = report.strip().split("\n")
    assert len(lines) == 2  # header and rule
    assert "UAS%" in lines[0]


def test_single_config_renders_one_row():
    result = EvalResult(80.0, 60.0, 5, 4, 3)
    report = ablation_report({"word+pos": {"test": result}})
    lines = report.strip().split("\n")
    assert len(lines) == 3
    assert "word+pos" in lines[2] and "80.00" in lines[2] and "60.00" in lines[2]


def test_condition_columns_and_records():
    results = {
        "word+pos": {"gold": EvalResult(79.29, 71.44, 100, 79, 71),
                     "auto": EvalResult(77.51, 68.27, 100, 77, 68)},
        "word+pos+char": {"gold": EvalResult(80.58, 72.95, 100, 80, 72)},
    }
    report = ablation_report(results)
    assert "gold UAS%" in report and "auto LAS%" in report
    assert report.count("\n") == 4
    text = format_records(results)
    assert text.endswith("}\n") and text.count("\n") == 3
    records = [json.loads(line) for line in text.split("\n")[:-1]]
    assert records == [
        {"config": "word+pos", "condition": "gold", "uas": 79.29, "las": 71.44, "tokens": 100},
        {"config": "word+pos", "condition": "auto", "uas": 77.51, "las": 68.27, "tokens": 100},
        {"config": "word+pos+char", "condition": "gold", "uas": 80.58, "las": 72.95, "tokens": 100},
    ]
    assert [list(r) for r in records] == [["config", "condition", "uas", "las", "tokens"]] * 3
    by_key = {(r["config"], r["condition"]): r for r in records}
    delta = by_key[("word+pos+char", "gold")]["uas"] - by_key[("word+pos", "gold")]["uas"]
    assert delta == pytest.approx(1.29)


def test_records_of_no_results_are_one_empty_line():
    assert format_records({}) == "\n"
    assert format_records({"word+pos": {}}) == "\n"


def run_ablation(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_ablation.py"), *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_ablation_script_trains_and_scores_all_four_configurations(tmp_path):
    corpus = toy_corpus(seed=3, count=6, n_min=3, n_max=6)
    train = tmp_path / "train.conll"
    write_conll_file(str(train), corpus)
    forms = sorted({t.form for sentence in corpus for t in sentence})
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("".join(f"{w} 0.1 -0.2 0.3\n" for w in forms[:5]), encoding="utf-8")
    cfg = tmp_path / "base.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in TINY.items()) + "epochs = 1\n", encoding="utf-8")
    outdir = tmp_path / "runs"
    done = run_ablation("--train", train, "--test", f"gold:{train}", "--pretrained", vectors,
                        "--config", cfg, "--outdir", outdir)
    assert done.returncode == 0, done.stderr
    configs = ["word+pos", "+char", "+pretrained", "+char+pretrained"]
    rows = done.stdout.strip().split("\n")[2:]  # below the header and rule
    assert [row.split()[0] for row in rows] == configs
    records = [json.loads(line) for line in (outdir / "ablation.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [r["config"] for r in records] == configs


def test_ablation_script_without_a_projective_training_sentence_is_a_data_error(tmp_path):
    # arcs 3 -> 1 and 4 -> 2 cross
    train = tmp_path / "train.conll"
    write_conll_file(str(train), [sentence_from([3, 4, 0, 3], ["a", "b", "root", "c"])])
    done = run_ablation("--train", train, "--test", train, "--outdir", tmp_path / "runs")
    assert done.returncode == 2
    errors = [line for line in done.stderr.splitlines() if line.startswith("error: ")]
    assert errors == ["error: no projective sentences left to train on"]
    assert "Traceback" not in done.stderr


@pytest.fixture()
def ablation(tmp_path):
    """The ablation script's ``main`` run in-process with ``--train train.conll`` (6 sentences),
    a 1-epoch tiny-dims ``--config`` and ``--outdir runs``, all under ``tmp_path``."""
    spec = importlib.util.spec_from_file_location("run_ablation", ROOT / "scripts" / "run_ablation.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    write_conll_file(str(tmp_path / "train.conll"), toy_corpus(seed=3, count=6, n_min=3, n_max=6))
    cfg = tmp_path / "base.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in TINY.items()) + "epochs = 1\n", encoding="utf-8")
    given = ["--train", tmp_path / "train.conll", "--config", cfg, "--outdir", tmp_path / "runs"]
    return lambda *argv: script.main([str(a) for a in [*given, *argv]])


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


@pytest.mark.parametrize("target", ["train", "score_file"])
def test_an_interrupted_ablation_run_is_one_error_line(tmp_path, capsys, monkeypatch, ablation, target):
    # interrupted inside `efdp train`, which cli.main reports, and between commands, which the script reports
    monkeypatch.setattr(cli, target, _interrupt)
    assert ablation("--test", f"gold:{tmp_path / 'train.conll'}") == 130
    captured = capsys.readouterr()
    assert captured.err == "error: interrupted\n" and captured.out == ""


def test_a_test_file_without_a_condition_is_the_condition_test(tmp_path, ablation):
    assert ablation("--test", tmp_path / "train.conll") == 0
    lines = (tmp_path / "runs" / "ablation.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert [(r["config"], r["condition"]) for r in records] == [("word+pos", "test"), ("+char", "test")]
    assert (tmp_path / "runs" / "model_word_pos.test.conll").exists()


@pytest.mark.parametrize("first, second, condition", [("gold:", "gold:", "gold"), ("", "test:", "test")])
def test_a_condition_given_twice_is_a_config_error_before_training(
        tmp_path, capsys, ablation, first, second, condition):
    train = tmp_path / "train.conll"
    assert ablation("--test", f"{first}{train}", "--test", f"{second}{train}") == 1
    assert capsys.readouterr().err == f"error: test condition {condition!r} given twice\n"
    assert not (tmp_path / "runs").exists()
