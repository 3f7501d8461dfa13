import dataclasses
import json
import logging
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from efdp import cli
from efdp.autodiff import FORMAT_VERSION, MAGIC
from efdp.config import Config, parse_config
from efdp.easyfirst import arcs_to_rows, parse
from efdp.errors import ConfigError, DataError
from efdp.model import ParserModel, meta_path
from efdp.represent import build_vocab, load_pretrained, parse_pretrained
from efdp.synthetic import grammar_corpus, toy_corpus
from efdp.treebank import Sentence, read_conll, write_conll, write_conll_file
from helpers import TINY, tiny_model

TINY_KEYS = "\n".join(f"{k} = {v}" for k, v in TINY.items())


@pytest.fixture()
def workdir(tmp_path):
    corpus = grammar_corpus(seed=8, count=12)
    train = tmp_path / "train.conll"
    write_conll_file(str(train), corpus)
    cfg = tmp_path / "efdp.cfg"
    cfg.write_text(
        f"train = {train}\nmodel = {tmp_path / 'model.bin'}\n"
        f"epochs = 2\nseed = 3\n{TINY_KEYS}\n",
        encoding="utf-8",
    )
    return tmp_path


def run(argv):
    return cli.main([str(a) for a in argv])


def test_config_file_parsing_and_overrides():
    cfg = parse_config("epochs = 7\nuse_char = true\n# comment\n\nlr = 0.5\n")
    assert cfg.epochs == 7 and cfg.use_char is True and cfg.lr == 0.5
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("not_a_key = 1\n")
    with pytest.raises(ConfigError, match="integer"):
        parse_config("epochs = many\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("just some words\n")


def test_config_validation():
    with pytest.raises(ConfigError, match="word_dim"):
        Config(word_dim=0).validate()
    with pytest.raises(ConfigError, match="error_batch"):
        Config(error_batch=0).validate()
    for bad in (dict(test_size=-3), dict(lr=float("nan")), dict(lr=float("inf")), dict(lr=0.0),
                dict(dropout_alpha=-1.0), dict(seed=-1)):
        (name,) = bad
        with pytest.raises(ConfigError, match=name):
            Config(**bad).validate()
    Config(test_size=0, seed=0).validate()


@pytest.mark.parametrize("size", [-3, 12, 13, 999])
def test_out_of_range_test_size_is_a_config_error(workdir, capsys, size):
    assert run(["train", "--config", workdir / "efdp.cfg", "--test-size", size]) == 1
    assert_one_line_error(capsys)
    assert not (workdir / "model.bin").exists()


@pytest.mark.parametrize("word_dim", [100000000000000, 100000000000000000000])
def test_a_model_too_large_to_allocate_is_a_config_error(workdir, capsys, word_dim):
    # 12.8 PiB of word embeddings, then more columns than numpy allows in one dimension
    cfg = workdir / "huge.cfg"
    cfg.write_text((workdir / "efdp.cfg").read_text() + f"word_dim = {word_dim}\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["train", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == err.splitlines()[-1:]
    assert "Traceback" not in err
    assert not (workdir / "model.bin").exists()


def test_an_overflowing_forward_pass_is_one_error_line(workdir, capsys):
    cfg = workdir / "overflow.cfg"
    cfg.write_text((workdir / "efdp.cfg").read_text() + "lr = 1e200\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["train", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == err.splitlines()[-1:]
    assert "non-finite values" in err and "Traceback" not in err
    assert not (workdir / "model.bin").exists()


def test_an_overflowing_forward_pass_prints_nothing_but_its_error_line(workdir):
    # a fresh interpreter, since pytest would capture numpy's warnings before they reach stderr;
    # an update per margin error overflows before the first epoch's log line
    cfg = workdir / "overflow.cfg"
    cfg.write_text((workdir / "efdp.cfg").read_text() + "lr = 1e200\nerror_batch = 1\n", encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "efdp.cli", "train", "--config", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr == "error: matmul produced non-finite values\n"
    assert not (workdir / "model.bin").exists()


def test_train_parse_eval_round_trip(workdir, capsys):
    assert run(["train", "--config", workdir / "efdp.cfg"]) == 0
    assert (workdir / "model.bin").exists()
    assert (workdir / "model.bin.meta.json").exists()

    out = workdir / "parsed.conll"
    assert run([
        "parse", "--config", workdir / "efdp.cfg",
        "--input", workdir / "train.conll", "--output", out,
    ]) == 0
    parsed = read_conll(str(out))
    gold = read_conll(str(workdir / "train.conll"))
    assert len(parsed) == len(gold)
    for p, g in zip(parsed, gold):
        assert [t.form for t in p] == [t.form for t in g]

    assert run(["eval", workdir / "train.conll", out]) == 0
    line = capsys.readouterr().out.strip().split("\n")[-1]
    assert line.startswith("UAS ") and " LAS " in line
    uas = float(line.split()[1])
    assert 0.0 <= uas <= 100.0


def test_eval_formats_two_decimals(workdir, capsys):
    gold = workdir / "gold.conll"
    pred = workdir / "pred.conll"
    corpus = grammar_corpus(seed=9, count=2)
    write_conll_file(str(gold), corpus)
    write_conll_file(str(pred), corpus)
    assert run(["eval", gold, pred]) == 0
    assert capsys.readouterr().out.strip() == "UAS 100.00 LAS 100.00"


def test_eval_refuses_predictions_for_other_word_forms(workdir, capsys):
    gold = workdir / "gold.conll"
    pred = workdir / "pred.conll"
    corpus = grammar_corpus(seed=9, count=3)
    write_conll_file(str(gold), corpus)
    renamed = [Sentence(tuple(dataclasses.replace(t, form=t.form + "x") for t in s)) for s in corpus]
    write_conll_file(str(pred), corpus[:1] + renamed[1:])
    assert run(["eval", gold, pred]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sentence 2: ") and err.count("\n") == 1


def test_parse_never_reads_gold_annotations(workdir):
    assert run(["train", "--config", workdir / "efdp.cfg"]) == 0
    clean_out = workdir / "clean.conll"
    run(["parse", "--config", workdir / "efdp.cfg", "--input", workdir / "train.conll",
         "--output", clean_out])
    # corrupt HEAD/DEPREL columns and parse again
    corrupted = workdir / "corrupted.conll"
    sentences = read_conll(str(workdir / "train.conll"))
    corrupted.write_text(
        write_conll(sentences, [[(0, "_")] * len(s) for s in sentences]), encoding="utf-8"
    )
    corrupted_out = workdir / "corrupted_out.conll"
    run(["parse", "--config", workdir / "efdp.cfg", "--input", corrupted,
         "--output", corrupted_out])
    assert clean_out.read_bytes() == corrupted_out.read_bytes()


def test_trace_emits_steps_then_conll(workdir, capsys):
    assert run(["train", "--config", workdir / "efdp.cfg"]) == 0
    assert run(["trace", "--config", workdir / "efdp.cfg",
                "--input", workdir / "train.conll", "--index", 1]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    gold = read_conll(str(workdir / "train.conll"))
    n = len(gold[1])
    steps = [l for l in lines if l.split("\t")[0].isdigit() and len(l.split("\t")) == 7]
    assert len(steps) == n - 1


def test_missing_pretrained_path_is_a_config_error(workdir):
    cfg = workdir / "bad.cfg"
    cfg.write_text(
        (workdir / "efdp.cfg").read_text() + "use_pretrained = true\n", encoding="utf-8"
    )
    assert run(["train", "--config", cfg]) == 1


def test_malformed_treebank_is_a_data_error(workdir, tmp_path):
    bad = tmp_path / "bad.conll"
    bad.write_text("1\tx\tN\n", encoding="utf-8")
    cfg = workdir / "efdp.cfg"
    text = cfg.read_text().replace("train.conll", "missing.conll")
    # missing file is a config error
    missing_cfg = tmp_path / "missing.cfg"
    missing_cfg.write_text(text, encoding="utf-8")
    assert run(["train", "--config", missing_cfg]) == 1
    # malformed content is a data error
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(cfg.read_text().replace("train.conll", "bad.conll"), encoding="utf-8")
    (workdir / "bad.conll").write_text("1\tx\tN\n", encoding="utf-8")
    assert run(["train", "--config", bad_cfg]) == 2


def test_usage_error_exits_one(capsys):
    assert run(["definitely-not-a-command"]) == 1
    assert run(["parse"]) == 1  # missing required arguments


def test_train_runs_are_deterministic(workdir):
    cfg_text = (workdir / "efdp.cfg").read_text()
    models = []
    for tag in ("a", "b"):
        cfg = workdir / f"rerun_{tag}.cfg"
        model_path = workdir / f"model_{tag}.bin"
        cfg.write_text(cfg_text.replace("model.bin", f"model_{tag}.bin"), encoding="utf-8")
        assert run(["train", "--config", cfg]) == 0
        models.append(model_path.read_bytes())
    assert models[0] == models[1]


def test_seed_flag_changes_the_model(workdir):
    cfg_text = (workdir / "efdp.cfg").read_text()
    outputs = []
    for tag, seed in (("x", "3"), ("y", "99")):
        cfg = workdir / f"seed_{tag}.cfg"
        cfg.write_text(cfg_text.replace("model.bin", f"model_{tag}.bin"), encoding="utf-8")
        assert run(["train", "--config", cfg, "--seed", seed]) == 0
        outputs.append((workdir / f"model_{tag}.bin").read_bytes())
    assert outputs[0] != outputs[1]


def test_saved_model_reproduces_scores(workdir, capsys):
    assert run(["train", "--config", workdir / "efdp.cfg"]) == 0
    out1 = workdir / "out1.conll"
    out2 = workdir / "out2.conll"
    for out in (out1, out2):
        assert run(["parse", "--config", workdir / "efdp.cfg",
                    "--input", workdir / "train.conll", "--output", out]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_train_logs_pretrained_coverage(workdir, caplog):
    forms = sorted({t.form for s in read_conll(str(workdir / "train.conll")) for t in s})
    vectors = workdir / "vectors.txt"
    vectors.write_text("".join(f"{f} 0.5 -0.5\n" for f in forms[:3]), encoding="utf-8")
    caplog.set_level(logging.INFO)
    assert run(["train", "--config", workdir / "efdp.cfg", "--epochs", 1,
                "--use-pretrained", "--pretrained", vectors]) == 0
    expected = f"pretrained vectors cover {100 * 3 / len(forms):.2f}% of {len(forms)} training word forms"
    assert expected in caplog.messages


def test_split_holdout_from_single_file(workdir, monkeypatch):
    cfg = workdir / "split.cfg"
    cfg.write_text(
        (workdir / "efdp.cfg").read_text().replace("model.bin", "split_model.bin")
        + "test_size = 3\nepochs = 1\n",
        encoding="utf-8",
    )
    seen = []
    real_train = cli.train

    def spy(corpus, model, epochs, dev=None):
        seen.append((corpus, dev))
        return real_train(corpus, model, epochs, dev=dev)

    monkeypatch.setattr(cli, "train", spy)
    assert run(["train", "--config", cfg]) == 0
    assert (workdir / "split_model.bin").exists()
    sentences = read_conll(str(workdir / "train.conll"))
    assert seen == [(sentences[:-3], sentences[-3:])]  # the file's last 3 sentences are held out


def test_flags_override_the_config_file_and_absent_flags_keep_it(workdir, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "train", lambda corpus, model, epochs, dev=None: seen.append((model.config, dev)))
    cfg = workdir / "set.cfg"
    for use_char in ("true", "false"):
        cfg.write_text((workdir / "efdp.cfg").read_text() + f"test_size = 3\nuse_char = {use_char}\n",
                       encoding="utf-8")
        assert run(["train", "--config", cfg]) == 0
        assert run(["train", "--config", cfg, "--model", workdir / "flag.bin", "--seed", 0,
                    "--test-size", 0, "--use-char"]) == 0
    (kept, kept_dev), (given, given_dev), (kept_off, _), (given_on, _) = seen
    assert (kept.model, kept.seed, kept.test_size, kept.use_char) == (str(workdir / "model.bin"), 3, 3, True)
    assert len(kept_dev) == 3
    assert (given.model, given.seed, given.test_size, given.use_char) == (str(workdir / "flag.bin"), 0, 0, True)
    assert given_dev is None
    assert kept_off.use_char is False and given_on.use_char is True
    assert (workdir / "model.bin").exists() and (workdir / "flag.bin").exists()


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


def test_an_interrupt_is_one_error_line_and_exit_130(workdir, capsys, monkeypatch):
    monkeypatch.setattr(cli, "train", _interrupt)
    assert run(["train", "--config", workdir / "efdp.cfg"]) == 130
    captured = capsys.readouterr()
    assert captured.err == "error: interrupted\n" and captured.out == ""
    assert not (workdir / "model.bin").exists()


def test_reloaded_model_reproduces_dev_scores(tmp_path):
    from efdp.config import Config as Cfg
    from efdp.evaluate import score
    from efdp.model import ParserModel
    from efdp.oracle import train
    from efdp.easyfirst import arcs_to_rows, parse
    from efdp.represent import build_vocab

    corpus = grammar_corpus(seed=14, count=8)
    vocab = build_vocab(corpus)
    model = ParserModel(Cfg(seed=2, **TINY), vocab)
    metrics = train(corpus, model, 2, dev=corpus)
    model.save(str(tmp_path / "m.bin"))
    reloaded = ParserModel.load(str(tmp_path / "m.bin"))
    result = score(corpus, [arcs_to_rows(parse(s, reloaded), len(s)) for s in corpus])
    # training retains the epoch with the best dev attachment score
    best = max(metrics, key=lambda r: r["dev_uas"])
    assert result.uas == pytest.approx(best["dev_uas"])
    assert result.las == pytest.approx(best["dev_las"])


def test_empty_input_parses_to_empty_output(workdir):
    assert run(["train", "--config", workdir / "efdp.cfg"]) == 0
    empty = workdir / "empty.conll"
    empty.write_text("", encoding="utf-8")
    out = workdir / "empty_out.conll"
    assert run(["parse", "--config", workdir / "efdp.cfg", "--input", empty,
                "--output", out]) == 0
    assert out.read_text() == ""


NOT_UTF8 = "1\tm\u00e8o\t_\tN\tN\t_\t0\troot\t_\t_\n".encode("latin-1")


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_non_utf8_treebank_is_a_data_error(workdir, capsys):
    bad = workdir / "latin1.conll"
    bad.write_bytes(NOT_UTF8)
    assert run(["eval", bad, bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text (") and err.count(str(bad)) == 1 and err.count("\n") == 1


def test_non_utf8_config_is_a_config_error(workdir, capsys):
    bad = workdir / "latin1.cfg"
    bad.write_bytes("train = m\u00e8o.conll\n".encode("latin-1"))
    assert run(["train", "--config", bad]) == 1
    assert_one_line_error(capsys)


def test_non_utf8_pretrained_file_is_a_data_error(workdir, capsys):
    bad = workdir / "latin1.vec"
    bad.write_bytes("m\u00e8o 0.1 0.2\n".encode("latin-1"))
    cfg = workdir / "pre.cfg"
    cfg.write_text(
        (workdir / "efdp.cfg").read_text() + f"use_pretrained = true\npretrained = {bad}\n",
        encoding="utf-8",
    )
    assert run(["train", "--config", cfg]) == 2
    assert_one_line_error(capsys)


def _bad_meta_json(path):
    (path.parent / meta_path(path.name)).write_text("{not json", encoding="utf-8")


def _meta_without_arch(path):
    (path.parent / meta_path(path.name)).write_text('{"meta_version": 1}', encoding="utf-8")


def _empty_bin(path):
    path.write_bytes(b"")  # no map of an empty file can be made: it must still read as a bad header


def _non_utf8_parameter_name(path):
    blob = bytearray(path.read_bytes())
    blob[16] = 0xFF  # first byte of the first parameter name
    path.write_bytes(bytes(blob))


def _dims_overflowing_64_bits(path):
    name = b"word_emb"
    path.write_bytes(
        MAGIC + struct.pack("<III", FORMAT_VERSION, 1, len(name)) + name
        + struct.pack("<5I", 4, 2**16, 2**16, 2**16, 2**16) + bytes(8)
    )


def _non_finite_value(path):
    blob = bytearray(path.read_bytes())
    blob[-8:] = struct.pack("<d", float("nan"))  # last value of the last parameter
    path.write_bytes(bytes(blob))


def _repeated_parameter(path):
    # the first parameter listed once more after the last, with another value
    blob = path.read_bytes()
    count, name_len = struct.unpack_from("<II", blob, 8)
    (rank,) = struct.unpack_from("<I", blob, 16 + name_len)
    values = 20 + name_len + 4 * rank
    end = values + 8 * math.prod(struct.unpack_from(f"<{rank}I", blob, values - 4 * rank))
    again = blob[12:values] + bytes(end - values)
    path.write_bytes(blob[:8] + struct.pack("<I", count + 1) + blob[12:] + again)


def _zero_dim_beside_huge_dims(path):
    name = b"word_emb"
    path.write_bytes(
        MAGIC + struct.pack("<III", FORMAT_VERSION, 1, len(name)) + name
        + struct.pack("<4I", 3, 0, 2**32 - 1, 2**32 - 1)
    )


def _edit_arch(path, key, value):
    meta_file = path.parent / meta_path(path.name)
    meta = json.loads(meta_file.read_text(encoding="utf-8"))
    meta["arch"][key] = value
    meta_file.write_text(json.dumps(meta), encoding="utf-8")


def _arch_as_string(path):
    meta_file = path.parent / meta_path(path.name)
    meta = json.loads(meta_file.read_text(encoding="utf-8"))
    meta["arch"] = "use_char"
    meta_file.write_text(json.dumps(meta), encoding="utf-8")


def _zero_tree_hidden(path):
    _edit_arch(path, "tree_hidden", 0)


def _zero_sent_hidden(path):
    _edit_arch(path, "sent_hidden", 0)


def _edit_vocab(path, key, edit):
    meta_file = path.parent / meta_path(path.name)
    meta = json.loads(meta_file.read_text(encoding="utf-8"))
    meta["vocab"][key] = edit(meta["vocab"][key])
    meta_file.write_text(json.dumps(meta), encoding="utf-8")


def _empty_relations(path):
    # with one relation, rel_emb and mlp_r have the shapes they have with none
    corpus = toy_corpus(seed=11, count=6, n_min=3, n_max=6, relations=("dep",), root_relation="dep")
    ParserModel(Config(seed=4, **TINY), build_vocab(corpus)).save(str(path))
    _edit_vocab(path, "rels", lambda rels: [])


def _duplicate_relations(path):
    _edit_vocab(path, "rels", lambda rels: rels[:-1] + rels[:1])


def _relations_as_string(path):
    # as many letters as the model has relations, so every shape still fits
    _edit_vocab(path, "rels", lambda rels: "abcdefghijklmnopqrstuvwxyz"[: len(rels)])


def _root_label_not_a_string(path):
    _edit_vocab(path, "root_label", lambda label: 5)


@pytest.mark.parametrize(
    "damage",
    [_bad_meta_json, _meta_without_arch, _empty_bin, _non_utf8_parameter_name, _dims_overflowing_64_bits,
     _zero_dim_beside_huge_dims, _non_finite_value, _repeated_parameter, _empty_relations, _duplicate_relations,
     _relations_as_string, _root_label_not_a_string, _zero_tree_hidden, _zero_sent_hidden, _arch_as_string],
)
def test_malformed_model_files_are_data_errors(tmp_path, capsys, damage):
    model, corpus = tiny_model(seed=4)
    path = tmp_path / "model.bin"
    model.save(str(path))
    write_conll_file(str(tmp_path / "in.conll"), corpus)
    damage(path)
    with pytest.raises(DataError):
        ParserModel.load(str(path))
    assert run(["parse", "--model", path, "--input", tmp_path / "in.conll",
                "--output", tmp_path / "out.conll"]) == 2
    assert_one_line_error(capsys)


def test_a_pretrained_model_without_its_embedding_file_is_a_config_error(tmp_path, capsys):
    corpus = toy_corpus(seed=11, count=6, n_min=3, n_max=6)
    table = parse_pretrained("".join(f"{t.form} 0.5 -0.5\n" for t in corpus[0]))
    path = tmp_path / "model.bin"
    ParserModel(Config(seed=4, use_pretrained=True, **TINY), build_vocab(corpus), pretrained=table).save(str(path))
    write_conll_file(str(tmp_path / "in.conll"), corpus)
    with pytest.raises(ConfigError, match="pass the embedding file"):
        ParserModel.load(str(path))
    assert run(["parse", "--model", path, "--input", tmp_path / "in.conll",
                "--output", tmp_path / "out.conll"]) == 1
    assert_one_line_error(capsys)


@pytest.fixture()
def pretrained_workdir(workdir):
    """``workdir`` plus ``model.bin`` trained by `efdp train --use-pretrained`
    on 3-dimensional vectors (``vec.txt``) and a 2-dimensional file (``vec2.txt``)."""
    forms = sorted({t.form for s in read_conll(str(workdir / "train.conll")) for t in s})
    (workdir / "vec.txt").write_text(
        "".join(f"{f} 0.{i % 7} -0.{i % 5} 0.{i % 3}\n" for i, f in enumerate(forms)), encoding="utf-8")
    (workdir / "vec2.txt").write_text("".join(f"{f} 0.5 -0.5\n" for f in forms), encoding="utf-8")
    assert run(["train", "--config", workdir / "efdp.cfg", "--use-pretrained",
                "--pretrained", workdir / "vec.txt"]) == 0
    return workdir


def test_parse_and_trace_take_the_embedding_file_a_model_needs(pretrained_workdir, capsys):
    d = pretrained_workdir
    model = ParserModel.load(str(d / "model.bin"), pretrained=str(d / "vec.txt"))
    sentences = read_conll(str(d / "train.conll"))
    steps = []
    traced = parse(sentences[1], model, trace=steps.append)
    capsys.readouterr()
    # no config file: the model's meta file says that it needs the embeddings
    given = ["--model", d / "model.bin", "--pretrained", d / "vec.txt", "--input", d / "train.conll"]
    assert run(["parse", *given, "--output", "-"]) == 0
    assert capsys.readouterr().out == write_conll(
        sentences, [arcs_to_rows(parse(s, model), len(s)) for s in sentences])
    assert run(["trace", *given, "--index", 1]) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in steps) + write_conll(
        sentences[1:2], [arcs_to_rows(traced, len(sentences[1]))])


@pytest.mark.parametrize("command", ["parse", "trace"])
@pytest.mark.parametrize("vectors, message", [(None, "pass the embedding file"), ("vec2.txt", "dimension 2")])
def test_a_pretrained_model_needs_its_embedding_file_at_its_dimension(
        pretrained_workdir, capsys, command, vectors, message):
    d = pretrained_workdir
    with pytest.raises(ConfigError, match=message):
        ParserModel.load(str(d / "model.bin"), pretrained=str(d / vectors) if vectors else None)
    argv = [command, "--model", d / "model.bin", "--input", d / "train.conll"]
    argv += ["--pretrained", d / vectors] if vectors else []
    argv += ["--output", d / "out.conll"] if command == "parse" else []
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("given", ["--pretrained", "config"])
def test_a_model_without_pretrained_vectors_never_reads_an_embedding_file(workdir, capsys, given):
    assert run(["train", "--config", workdir / "efdp.cfg"]) == 0
    bad = workdir / "bad.vec"
    bad.write_text("w 0.1 0.2\nv 0.3\n", encoding="utf-8")  # rows of unequal dimension: a DataError if read
    argv = ["--model", workdir / "model.bin", "--input", workdir / "train.conll"]
    capsys.readouterr()
    assert run(["parse", *argv, "--output", "-"]) == 0
    plain = capsys.readouterr().out
    if given == "config":
        (workdir / "pre.cfg").write_text(f"pretrained = {bad}\n", encoding="utf-8")
        argv += ["--config", workdir / "pre.cfg"]
    else:
        argv += ["--pretrained", bad]
    assert run(["parse", *argv, "--output", "-"]) == 0
    assert capsys.readouterr().out == plain
    assert run(["trace", *argv, "--index", 1]) == 0
    with pytest.raises(DataError):
        load_pretrained(str(bad))


def test_a_word_pos_model_loads_beside_a_missing_embedding_file(tmp_path):
    model, _ = tiny_model(seed=4)
    path = str(tmp_path / "model.bin")
    model.save(path)
    loaded = ParserModel.load(path, pretrained=str(tmp_path / "missing.vec"))
    assert loaded.pretrained is None and loaded.store.to_bytes() == model.store.to_bytes()


@pytest.mark.parametrize("line", ["exclude_punct = true", "punct_tags = CH", "pretrained_dim = 3", "beta1 = 0.9",
                                  "beta2 = 0.999", "adam_eps = 1e-8", "min_word_freq = 2"])
def test_settings_owned_elsewhere_are_unknown_config_keys(workdir, capsys, line):
    # punctuation belongs to `efdp eval`'s flags, the embedding dimension to its file,
    # Adam's constants to `adam_step`; every training word form is in the vocabulary
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(line + "\n")
    cfg = workdir / "owned.cfg"
    text = (workdir / "efdp.cfg").read_text()
    cfg.write_text(text + line + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["train", "--config", cfg]) == 1
    key, lineno = line.split(" =")[0], text.count("\n") + 1
    assert capsys.readouterr().err == f"error: {cfg}: config line {lineno}: unknown key {key!r}\n"
    assert not (workdir / "model.bin").exists()


def test_a_failed_save_leaves_the_previous_pair(tmp_path, monkeypatch):
    path = str(tmp_path / "model.bin")
    tiny_model(seed=4)[0].save(path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    second = tiny_model(seed=5)[0]
    assert second.store.to_bytes() != before["model.bin"]

    def failing_dump(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(OSError, match="disk full"):
        second.save(path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    ParserModel.load(path)


def _saved_model(path):
    model, corpus = tiny_model(seed=4)
    model.save(str(path / "model.bin"))
    write_conll_file(str(path / "in.conll"), corpus)
    return ["--model", path / "model.bin"]


UNUSABLE_PATHS = {
    "eval-directory": lambda d: ["eval", d, d],
    "parse-input-directory": lambda d: ["parse", *_saved_model(d), "--input", d, "--output", d / "out.conll"],
    "parse-output-in-missing-directory": lambda d: [
        "parse", *_saved_model(d), "--input", d / "in.conll", "--output", d / "missing" / "out.conll"],
    "train-model-directory": lambda d: ["train", "--config", d / "efdp.cfg", "--model", d],
    "pretrained-directory": lambda d: [
        "train", "--config", d / "efdp.cfg", "--use-pretrained", "--pretrained", d],
    "config-missing": lambda d: ["train", "--config", d / "missing.cfg"],
    "config-directory": lambda d: ["train", "--config", d],
    "parse-missing-model": lambda d: [
        "parse", "--model", d / "missing.bin", "--input", d / "train.conll", "--output", d / "out.conll"],
}


@pytest.mark.parametrize("argv", UNUSABLE_PATHS.values(), ids=UNUSABLE_PATHS.keys())
def test_unusable_paths_are_one_line_errors(workdir, capsys, argv):
    assert run(argv(workdir)) == 1
    assert_one_line_error(capsys)


def _refuse_to_train(*args, **kwargs):
    raise AssertionError("training started")


@pytest.mark.parametrize("model, message", [(None, "missing required setting: model"),
                                            ("missing/model.bin", "does not exist")],
                         ids=["no-model", "model-in-missing-directory"])
def test_train_checks_the_model_path_before_training(workdir, capsys, monkeypatch, model, message):
    monkeypatch.setattr(cli, "train", _refuse_to_train)
    argv = ["train", "--train", workdir / "train.conll", "--epochs", 1]
    if model is not None:
        argv += ["--model", workdir / model]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_train_scores_a_separate_dev_file_each_epoch(workdir, caplog):
    dev = workdir / "dev.conll"
    write_conll_file(str(dev), grammar_corpus(seed=9, count=3))
    caplog.set_level(logging.INFO)
    assert run(["train", "--config", workdir / "efdp.cfg", "--test", dev]) == 0
    epochs = [m for m in caplog.messages if m.startswith("epoch ")]
    assert len(epochs) == 2
    assert all(" dev_uas " in m and " dev_las " in m for m in epochs)


def test_negative_epochs_is_a_config_error(workdir, capsys):
    assert run(["train", "--config", workdir / "efdp.cfg", "--epochs", -1]) == 1
    assert_one_line_error(capsys)
    assert not (workdir / "model.bin").exists()


@pytest.mark.parametrize("index", [6, -1])
def test_trace_index_out_of_range_is_a_data_error(workdir, capsys, index):
    # _saved_model writes 6 sentences
    assert run(["trace", *_saved_model(workdir), "--input", workdir / "in.conll", "--index", index]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: sentence index {index} out of range (6 sentences)\n"


EMPTY_FORM = "1\tcon\t_\tN\tN\t_\t2\tdet\t_\t_\n2\t\t_\tN\tN\t_\t0\troot\t_\t_\n"


def test_empty_form_is_a_data_error_naming_its_line(workdir, capsys):
    bad = workdir / "empty_form.conll"
    bad.write_text(EMPTY_FORM, encoding="utf-8")
    assert run(["eval", bad, bad]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line 2: empty FORM\n"


def test_a_bad_predicted_file_is_named_and_the_gold_file_is_not(workdir, capsys):
    gold = workdir / "gold.conll"
    write_conll_file(str(gold), grammar_corpus(seed=9, count=2))
    bad = workdir / "pred.conll"
    bad.write_text(EMPTY_FORM, encoding="utf-8")
    assert run(["eval", gold, bad]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line 2: empty FORM\n"


def test_a_bad_embedding_line_names_its_file(workdir, capsys):
    bad = workdir / "bad.vec"
    bad.write_text("w 0.1 0.2\nv 0.3\n", encoding="utf-8")
    assert run(["train", "--config", workdir / "efdp.cfg", "--use-pretrained", "--pretrained", bad]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line 2: dimension 1 != expected 2\n"
    assert not (workdir / "model.bin").exists()


def test_a_bad_config_line_names_its_file(workdir, capsys):
    bad = workdir / "bad.cfg"
    bad.write_text("epochs = 1\njust some words\n", encoding="utf-8")
    assert run(["train", "--config", bad]) == 1
    assert capsys.readouterr().err == f"error: {bad}: config line 2: expected key=value, got 'just some words'\n"


def test_one_word_sentence_traces_no_step_and_one_root_arc(workdir, capsys):
    argv = _saved_model(workdir)
    one = workdir / "one.conll"
    sentence = read_conll(str(workdir / "in.conll"))[0].tokens[:1]
    write_conll_file(str(one), [Sentence(sentence)])
    root_label = ParserModel.load(str(workdir / "model.bin")).vocab.root_label
    want = write_conll([Sentence(sentence)], [[(0, root_label)]])
    assert run(["trace", *argv, "--input", one]) == 0
    assert capsys.readouterr().out == want
    assert run(["parse", *argv, "--input", one, "--output", "-"]) == 0
    assert capsys.readouterr().out == want
