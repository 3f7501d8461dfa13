"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
The full-corpus reproduction check only runs when EFDP_VNDT_TRAIN and
EFDP_VNDT_TEST point at treebank files (field data is not redistributable).
"""

import functools
import io
import itertools
import os
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from efdp import cli
from efdp.autodiff import ParameterStore, Tape, Tensor
from efdp.config import Config
from efdp.easyfirst import (
    LEFT,
    RIGHT,
    ActionScorer,
    apply_action,
    arcs_to_rows,
    decode,
    init_pending,
    parse,
)
from efdp.layers import BiLstm, LstmCell, Mlp, blank, uniform
from efdp.model import ParserModel
from efdp.oracle import hinge_loss, hinge_margin, train
from efdp.represent import build_vocab, encode_sentence
from efdp.synthetic import grammar_corpus, random_sentence
from efdp.treebank import Sentence, Token, is_projective, validate_tree, write_conll_file
from helpers import TINY, action_index, assert_float32_of, check_gradients, tiny_model
from test_easyfirst import FIG_HEADS, ScriptedScorer, fig_model
from test_oracle import gold_arcs, oracle_rollout

RTOL = 1e-4


def criterion(name, budget_seconds):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {name}: FAIL")
                raise
            elapsed = time.time() - started
            assert elapsed < budget_seconds, f"{name} took {elapsed:.1f}s (budget {budget_seconds}s)"
            print(f"\nACCEPTANCE {name}: PASS ({elapsed:.1f}s)")

        return run

    return wrap


# 1 ------------------------------------------------------------------


@criterion("gradient-integrity", 60)
def test_gradient_integrity():
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)

        # LSTM cell through a three-step chain
        store = ParameterStore()
        cell = LstmCell(store, "cell", 3, 4, rng)
        xs = [Tensor(rng.uniform(-1, 1, (3, 1))) for _ in range(3)]

        def cell_loss():
            t = Tape()
            state = None
            for x in xs:
                state = cell.step(t, cell.project(t, x), state)
            return t, t.sum_all(state[0])

        check_gradients(cell_loss, store, rtol=RTOL)

        # stacked BiLSTM
        store = ParameterStore()
        net = BiLstm(store, "bi", 2, 3, 2, rng)
        seq = Tensor(np.hstack([rng.uniform(-1, 1, (2, 1)) for _ in range(3)]))

        def bilstm_loss():
            t = Tape()
            outputs, f_fin, b_fin = net.run(t, seq, [3])
            return t, t.add(t.sum_all(outputs), t.sum_all(t.concat(f_fin, b_fin)))

        check_gradients(bilstm_loss, store, rtol=RTOL)

        # MLP over a two-block input, its first layer as the window sum of per-block slot products
        store = ParameterStore()
        mlp = Mlp(store, "mlp", (4, 3, 2), rng, slots=2)
        mx = Tensor(rng.uniform(-1, 1, (4, 1)))
        blocks = (Tensor(mx.value[:2]), Tensor(mx.value[2:]))

        def mlp_loss():
            t = Tape()
            return t, t.sum_all(mlp.apply(t, t.window_sum([t.matmul(mlp.w0, b) for b in blocks], 2)))

        check_gradients(mlp_loss, store, rtol=RTOL)

        # tree encoder over a leaf + two attachments, standalone
        store = ParameterStore()
        v_dim, tree_hidden, label_dim = 4, 3, 2
        tree = SimpleNamespace(
            tree=(LstmCell(store, "tl", v_dim + label_dim, tree_hidden, rng),
                  LstmCell(store, "tr", v_dim + label_dim, tree_hidden, rng)),
            rel_emb=store.add("rel", uniform(rng, blank(rng, 3, label_dim), 0.05)),
            null_label=store.add("null", uniform(rng, blank(rng, label_dim, 1), 0.05)),
            w_e=store.add("we", uniform(rng, blank(rng, v_dim, 2 * tree_hidden + label_dim))),
            b_e=store.add("be", np.zeros((v_dim, 1))),
            rel_names=["r0", "r1", "r2"],
            n_relations=3,
            vocab=SimpleNamespace(root_label="root"),
        )
        words = Sentence(tuple(Token(i, f"w{i}", "N", 0 if i == 1 else 1, "r0") for i in (1, 2, 3)))
        vecs = Tensor(np.hstack([rng.uniform(-1, 1, (v_dim, 1)) for _ in range(3)]))

        def tree_loss():
            t = Tape()
            pending = init_pending(t, tree, vecs, words)
            apply_action(t, tree, pending, action_index(2, LEFT, 1, 3), [])
            apply_action(t, tree, pending, action_index(1, LEFT, 2, 3), [])
            return t, t.sum_all(pending[0].enc)

        check_gradients(tree_loss, store, rtol=RTOL)

        # full per-step score through encoder, pending list, and both MLPs
        model, corpus = tiny_model(seed=seed, corpus_seed=2000 + seed, count=3)
        sentence = corpus[0]

        def score_loss():
            t = Tape()
            vectors = encode_sentence(t, model, sentence)
            pending = init_pending(t, model, vectors, sentence)
            scorer = ActionScorer(t, model)
            r = model.n_relations
            first = scorer.score_tensor(pending, action_index(1, LEFT, 0, r))
            last = scorer.score_tensor(pending, action_index(len(pending) - 1, RIGHT, r - 1, r))
            return t, t.add(first, last)

        check_gradients(
            score_loss, model.store, rtol=RTOL, coords=lambda n: range(0, n, max(1, n // 12))
        )


# 2 ------------------------------------------------------------------


@criterion("oracle-round-trip", 30)
def test_oracle_round_trip():
    rng = np.random.default_rng(20240)
    for k in range(1000):
        sentence = random_sentence(
            rng, n_min=2, n_max=10, relations=("r0", "r1", "r2", "r3")
        )  # four labels plus the root relation
        assert oracle_rollout(sentence, rng) == gold_arcs(sentence), f"trial {k}"


# 3 ------------------------------------------------------------------


@criterion("action-space-law", 1)
def test_action_space_law():
    # score index k <-> (position, direction, relation) is a bijection onto
    # the 2R(n-1) actions of an n-item pending list
    for n in range(2, 11):
        for r in range(1, 41):
            actions = itertools.product(range(1, n), (LEFT, RIGHT), range(r))
            assert [decode(k, r) for k in range(2 * r * (n - 1))] == list(actions)


# 4 ------------------------------------------------------------------


@criterion("overfit", 300)
def test_overfit_small_corpus():
    corpus = grammar_corpus(seed=5, count=50)
    for s in corpus:
        validate_tree(s)
        assert is_projective(s)
    vocab = build_vocab(corpus)
    model = ParserModel(Config(seed=7), vocab)  # default dims
    # one epoch per call, stopping at the first that scores the corpus perfectly
    for _ in range(30):
        (record,) = train(corpus, model, 1, dev=corpus)
        if record["dev_uas"] == 100.0 and record["dev_las"] == 100.0:
            break
    assert record["dev_uas"] == 100.0 and record["dev_las"] == 100.0


# 5 ------------------------------------------------------------------


@criterion("figure-one-trace", 60)
def test_trace_command_reproduces_figure_one(tmp_path):
    model, sentence = fig_model(seed=0)
    model_path = tmp_path / "fig.bin"
    model.save(str(model_path))
    input_path = tmp_path / "fig.conll"
    write_conll_file(str(input_path), [sentence])
    script = [(4, LEFT, "nmod"), (3, LEFT, "det"), (2, 1, "dobj"), (1, LEFT, "nsubj")]
    out = io.StringIO()
    cfg = Config(model=str(model_path), **TINY)
    code = cli.cmd_trace(cfg, str(input_path), 0, out=out, scorer=ScriptedScorer(model, script))
    assert code == 0
    lines = out.getvalue().strip().split("\n")
    steps = [line.split("\t") for line in lines if len(line.split("\t")) == 7]
    emitted = [(int(f[1]), f[2], f[3]) for f in steps]
    assert emitted == [
        (4, "LEFT", "nmod"),
        (3, "LEFT", "det"),
        (2, "RIGHT", "dobj"),
        (1, "LEFT", "nsubj"),
    ]
    conll = [line.split("\t") for line in lines if len(line.split("\t")) == 10]
    assert [int(row[6]) for row in conll] == FIG_HEADS


# 6 ------------------------------------------------------------------


@criterion("hinge-oracle-equivalence", 60)
def test_hinge_matches_exhaustive_on_10000_configurations():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        k = int(rng.integers(2, 10))
        scores = rng.uniform(-4, 4, k)
        valid = rng.integers(0, 2, k).astype(bool)
        if not valid.any():
            valid[int(rng.integers(0, k))] = True
        best_g = max(s for s, v in zip(scores, valid) if v)
        invalid = [s for s, v in zip(scores, valid) if not v]
        expected = max(0.0, 1.0 - best_g + max(invalid)) if invalid else 0.0
        _, _, got = hinge_margin(scores, valid)
        assert got == expected  # same arithmetic, exact equality required
        tape = Tape()
        term = hinge_loss(tape, hinge_margin(scores, valid), lambda k: Tensor([[scores[k]]]))
        if expected > 0.0:
            assert term.item() == expected
        else:
            assert term is None


# 7 ------------------------------------------------------------------


@criterion("parser-wellformedness", 120)
def test_untrained_parser_emits_wellformed_trees():
    model, _ = tiny_model(seed=31)
    rng = np.random.default_rng(7)
    for _ in range(500):
        sentence = random_sentence(rng, n_min=1, n_max=12)
        arcs = parse(sentence, model)
        assert len(arcs) == len(sentence)
        rows = arcs_to_rows(arcs, len(sentence))
        parsed = Sentence(
            tuple(
                Token(t.index, t.form, t.pos, head, rel)
                for t, (head, rel) in zip(sentence, rows)
            )
        )
        validate_tree(parsed)  # single root, acyclic, reachable
        assert is_projective(parsed)


# 8 ------------------------------------------------------------------


@pytest.mark.parametrize("use_char", [False, True], ids=["word+pos", "char"])
@criterion("determinism", 120)
def test_training_is_deterministic_and_serialization_exact(tmp_path, use_char):
    corpus = grammar_corpus(seed=4, count=10)
    if use_char:  # words of 3, 6 and 9 letters: the char BiLSTM sorts unequal lengths with ties among them
        corpus = [Sentence(tuple(replace(t, form=t.form * (1 + t.index % 3)) for t in s)) for s in corpus]
    corpus_path = tmp_path / "train.conll"
    write_conll_file(str(corpus_path), corpus)
    blobs = []
    for tag in ("one", "two"):
        cfg_path = tmp_path / f"{tag}.cfg"
        keys = "\n".join(f"{k} = {v}" for k, v in TINY.items())
        cfg_path.write_text(
            f"train = {corpus_path}\nmodel = {tmp_path / tag}.bin\n"
            f"epochs = 2\nseed = 11\nuse_char = {use_char}\n{keys}\n",
            encoding="utf-8",
        )
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        blobs.append((tmp_path / f"{tag}.bin").read_bytes())
        blobs.append((tmp_path / f"{tag}.bin.meta.json").read_bytes())
    assert blobs[0] == blobs[2], "model files differ between identical runs"
    assert blobs[1] == blobs[3], "metadata differs between identical runs"

    # the file is exact: a float64 store reads it back to the same bytes
    loaded = ParserModel.load(str(tmp_path / "one.bin"))
    exact = ParserModel(loaded.config, loaded.vocab)
    exact.store.load_bytes(blobs[0])
    assert exact.store.to_bytes() == blobs[0]
    # and ParserModel.load holds its values rounded to float32
    assert_float32_of(loaded, exact)


# optional full-corpus target ----------------------------------------


@pytest.mark.skipif(
    not (os.environ.get("EFDP_VNDT_TRAIN") and os.environ.get("EFDP_VNDT_TEST")),
    reason="full-corpus treebank files not available in this environment",
)
def test_full_corpus_reference_target():
    """Multi-hour run against the published reference numbers; opt-in only."""
    from efdp.evaluate import score as eval_score
    from efdp.represent import load_pretrained
    from efdp.treebank import filter_projective, read_conll

    train_sents = read_conll(os.environ["EFDP_VNDT_TRAIN"])
    test_sents = read_conll(os.environ["EFDP_VNDT_TEST"])
    cfg = Config(use_char=True, seed=1, epochs=15)
    table = None
    if os.environ.get("EFDP_PRETRAINED"):
        table = load_pretrained(os.environ["EFDP_PRETRAINED"])
        cfg.use_pretrained = True
    projective, _ = filter_projective(train_sents)
    vocab = build_vocab(projective)
    model = ParserModel(cfg, vocab, pretrained=table)
    train(projective, model, cfg.epochs, dev=test_sents)
    predicted = [arcs_to_rows(parse(s, model), len(s)) for s in test_sents]
    result = eval_score(test_sents, predicted)
    assert result.uas >= 79.91 and result.las >= 71.98  # published target minus 1.0
