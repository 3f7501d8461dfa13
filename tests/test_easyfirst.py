import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from efdp.autodiff import Tape, Tensor
from efdp.easyfirst import (
    LEFT,
    RIGHT,
    ActionScorer,
    Arc,
    apply_action,
    arcs_to_rows,
    decode,
    format_trace,
    init_pending,
    parse,
)
from efdp.represent import build_vocab, encode_sentence, load_pretrained
from efdp.config import Config
from efdp.model import ParserModel
from efdp.oracle import Trainer
from efdp.synthetic import grammar_corpus, random_sentence, toy_corpus
from efdp.treebank import Sentence, Token, is_projective, validate_tree
from helpers import TINY, action_index, reloaded, tiny_model

FIG_FORMS = ["Tôi", "có", "một", "con", "mèo"]
FIG_POS = ["P", "V", "M", "Nc", "N"]
FIG_HEADS = [2, 0, 5, 5, 2]
FIG_RELS = ["nsubj", "root", "det", "nmod", "dobj"]


def fig_sentence():
    tokens = [
        Token(i + 1, FIG_FORMS[i], FIG_POS[i], FIG_HEADS[i], FIG_RELS[i]) for i in range(5)
    ]
    return Sentence(tuple(tokens))


def fig_model(seed=0):
    sentence = fig_sentence()
    vocab = build_vocab([sentence])
    return ParserModel(Config(seed=seed, **TINY), vocab), sentence


class ScriptedScorer:
    """Forces a fixed action sequence by scoring the next target highest."""

    def __init__(self, model, script):
        self.n_relations = model.n_relations
        self.rels = model.vocab.rels
        self.script = list(script)

    def scores(self, pending):
        position, direction, rel_label = self.script.pop(0)
        scores = np.zeros(2 * self.n_relations * (len(pending) - 1))
        scores[action_index(position, direction, self.rels[rel_label], self.n_relations)] = 10.0
        return scores


def manual_lstm_step(store, cell, h, c, x):
    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    def pre(gate):
        w_x, w_h, b = (store[f"{cell.name}/{gate}/{param}"].value for param in ("W_x", "W_h", "b"))
        return w_x @ x + w_h @ h + b

    i, f, o = sigmoid(pre("input")), sigmoid(pre("forget")), sigmoid(pre("output"))
    g = np.tanh(pre("cand"))
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def test_leaf_encoding_matches_manual_computation():
    model, sentence = fig_model()
    tape = Tape()
    vectors = encode_sentence(tape, model, sentence)
    pending = init_pending(tape, model, vectors, sentence)
    null = model.null_label.value
    for item, v in zip(pending, vectors.value.T):
        seed = np.vstack([v[:, None], null])
        zeros = np.zeros((model.config.tree_hidden, 1))
        h_l, _ = manual_lstm_step(model.store, model.tree[LEFT], zeros, zeros, seed)
        h_r, _ = manual_lstm_step(model.store, model.tree[RIGHT], zeros, zeros, seed)
        enc = np.tanh(model.w_e.value @ np.vstack([h_l, h_r, null]) + model.b_e.value)
        assert np.allclose(item.enc.value, enc, atol=1e-12)


def test_init_pending_rejects_empty():
    model, sentence = fig_model()
    with pytest.raises(ValueError):
        init_pending(Tape(), model, [], Sentence(()))


def test_init_pending_is_deterministic():
    model, sentence = fig_model()

    def encodings():
        tape = Tape()
        vectors = encode_sentence(tape, model, sentence)
        return [item.enc.value.copy() for item in init_pending(tape, model, vectors, sentence)]

    for a, b in zip(encodings(), encodings()):
        assert np.array_equal(a, b)


def test_action_count_formula():
    assert decode(15, 2) == (4, RIGHT, 1)  # the last of 2R(n-1) = 16 actions for 5 items
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        r = int(rng.integers(1, 41))
        count = 2 * r * (n - 1)
        assert [action_index(*decode(k, r), r) for k in range(count)] == list(range(count))
        assert decode(count, r)[0] == n  # the next index is past the last pair


def fig_action(model, position, direction, rel_label):
    return action_index(position, direction, model.vocab.rels[rel_label], model.n_relations)


def test_figure_one_action_sequence():
    model, sentence = fig_model()
    tape = Tape()
    vectors = encode_sentence(tape, model, sentence)
    pending = init_pending(tape, model, vectors, sentence)
    arcs = []

    meo = pending[4]
    enc_before = meo.enc.value.copy()
    apply_action(tape, model, pending, fig_action(model, 4, LEFT, "nmod"), arcs)
    assert [p.form for p in pending] == ["Tôi", "có", "một", "mèo"]
    assert (arcs[-1].head, arcs[-1].dep, arcs[-1].rel) == (5, 4, "nmod")
    assert not np.array_equal(meo.enc.value, enc_before)  # re-encoded after attach

    apply_action(tape, model, pending, fig_action(model, 3, LEFT, "det"), arcs)
    assert [p.form for p in pending] == ["Tôi", "có", "mèo"]
    assert (arcs[-1].head, arcs[-1].dep, arcs[-1].rel) == (5, 3, "det")
    assert [a.dep for a in arcs if a.head == 5] == [4, 3]  # nearest child first

    apply_action(tape, model, pending, fig_action(model, 2, RIGHT, "dobj"), arcs)
    assert [p.form for p in pending] == ["Tôi", "có"]
    assert (arcs[-1].head, arcs[-1].dep, arcs[-1].rel) == (2, 5, "dobj")

    apply_action(tape, model, pending, fig_action(model, 1, LEFT, "nsubj"), arcs)
    assert [p.form for p in pending] == ["có"]
    assert (arcs[-1].head, arcs[-1].dep, arcs[-1].rel) == (2, 1, "nsubj")

    assert pending[0].head_index == 2
    assert [a.dep for a in arcs if a.head == 2] == [5, 1]
    heads = {arc.dep: arc.head for arc in arcs}
    assert heads == {4: 5, 3: 5, 5: 2, 1: 2}


def test_full_scripted_parse_reproduces_figure_one():
    model, sentence = fig_model()
    script = [(4, LEFT, "nmod"), (3, LEFT, "det"), (2, RIGHT, "dobj"), (1, LEFT, "nsubj")]
    arcs = parse(sentence, model, scorer=ScriptedScorer(model, script))
    rows = arcs_to_rows(arcs, 5)
    assert [h for h, _ in rows] == FIG_HEADS
    assert [r for _, r in rows] == FIG_RELS


@pytest.mark.parametrize(
    "arcs",
    [
        [Arc(2, 1, "a"), Arc(0, 2, "root"), Arc(2, 3, "a"), Arc(2, 1, "b")],  # dependent 1 twice
        [Arc(0, 2, "root"), Arc(2, 3, "a")],  # token 1 missing
        [Arc(2, 1, "a"), Arc(0, 2, "root"), Arc(2, 4, "a")],  # dependent outside 1..3
        [Arc(2, 1, "a"), Arc(0, 2, "root"), Arc(2, 0, "a")],  # dependent 0 is the root
    ],
    ids=["duplicate", "missing", "beyond-n", "zero"],
)
def test_arcs_to_rows_rejects_bad_coverage(arcs):
    with pytest.raises(ValueError, match="exactly once"):
        arcs_to_rows(arcs, 3)


def test_apply_action_rejects_bad_position():
    model, sentence = fig_model()
    tape = Tape()
    vectors = encode_sentence(tape, model, sentence)
    pending = init_pending(tape, model, vectors, sentence)
    r = model.n_relations
    for k in (action_index(5, LEFT, 0, r), action_index(0, LEFT, 0, r), -1, 2 * r * (len(pending) - 1)):
        with pytest.raises(ValueError):
            apply_action(tape, model, pending, k, [])
    assert len(pending) == len(sentence)


def arc_set(arcs):
    return {(a.head, a.dep, a.rel) for a in arcs}


def test_parse_outputs_are_wellformed_trees():
    model, corpus = tiny_model(seed=9, count=1)
    rng = np.random.default_rng(123)
    for k in range(30):
        sentence = random_sentence(rng, n_min=1, n_max=12)
        arcs = parse(sentence, model)
        assert len(arcs) == len(sentence)
        rows = arcs_to_rows(arcs, len(sentence))
        parsed = Sentence(
            tuple(
                Token(t.index, t.form, t.pos, h, r)
                for t, (h, r) in zip(sentence, rows)
            )
        )
        validate_tree(parsed)
        assert is_projective(parsed)


def test_single_word_sentence_gets_root_arc():
    model, _ = fig_model()
    sentence = Sentence((Token(1, "có", "V", 0, "root"),))
    lines = []
    arcs = parse(sentence, model, trace=lines.append)
    assert arcs == [Arc(0, 1, "root")] and lines == []


def test_parse_executes_n_minus_one_scored_steps():
    model, sentence = fig_model()
    lines = []
    parse(sentence, model, trace=lines.append)
    assert len(lines) == len(sentence) - 1


def test_replaying_a_parse_is_bit_identical():
    model, sentence = fig_model(seed=3)
    lines_a, lines_b = [], []
    arcs_a = parse(sentence, model, trace=lines_a.append)
    arcs_b = parse(sentence, model, trace=lines_b.append)
    assert arcs_a == arcs_b
    assert lines_a == lines_b


def recorded_parse(sentence, model):
    """parse's loop on a recording tape: the arcs, each step's scores and the tape."""
    tape = Tape()
    pending = init_pending(tape, model, encode_sentence(tape, model, sentence), sentence)
    scorer = ActionScorer(tape, model)
    arcs, steps = [], []
    while len(pending) > 1:
        steps.append(scorer.scores(pending))
        apply_action(tape, model, pending, int(np.argmax(steps[-1])), arcs)
    assert len(tape) > 0
    return arcs, steps, tape


@pytest.mark.parametrize("use_char", [False, True])
def test_parse_records_nothing_and_scores_as_a_recording_tape_does(monkeypatch, tmp_path, use_char):
    built, corpus = tiny_model(seed=6, use_char=use_char)
    original = ActionScorer.scores
    # a loaded model too: both sides read the same float32 values
    for model in (built, reloaded(built, tmp_path / "model.bin")):
        scores, tapes = [], set()

        def noted(self, pending):
            tapes.add(self.tape)
            scores.append(original(self, pending))
            return scores[-1]

        for sentence in corpus:
            arcs, steps, _ = recorded_parse(sentence, model)
            monkeypatch.setattr(ActionScorer, "scores", noted)
            assert parse(sentence, model)[:-1] == arcs
            monkeypatch.undo()
            assert len(scores) == len(steps)
            for got, want in zip(scores, steps):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            scores.clear()
        assert len(tapes) == len(corpus)
        for tape in tapes:
            assert len(tape) == 0
            with pytest.raises(RuntimeError, match="does not record"):
                tape.backward(Tensor([[0.0]]))


@pytest.mark.parametrize("inputs", ["word+pos", "char", "pretrained"])
def test_a_loaded_model_parses_in_float32_alone(tmp_path, inputs):
    corpus = toy_corpus(seed=11, count=6, n_min=3, n_max=6)
    vectors = tmp_path / "vec.txt"  # forms of the other sentences get the mean vector
    vectors.write_text("".join(f"{t.form} 0.3 -0.7\n" for t in corpus[0]), encoding="utf-8")
    cfg = Config(seed=3, use_char=inputs == "char", use_pretrained=inputs == "pretrained", **TINY)
    table = load_pretrained(str(vectors)) if cfg.use_pretrained else None
    model = reloaded(ParserModel(cfg, build_vocab(corpus), table), tmp_path / "model.bin", str(vectors))
    for sentence in corpus:
        _, steps, tape = recorded_parse(sentence, model)
        assert {scores.dtype for scores in steps} == {np.dtype(np.float32)}
        assert {out.value.dtype for out, _ in tape._records} == {np.dtype(np.float32)}


def test_a_loaded_model_parses_as_its_float64_parent(tmp_path):
    grammar = grammar_corpus(seed=3, count=60)
    trained = ParserModel(Config(seed=3, **TINY), build_vocab(grammar[:50]))
    trainer = Trainer(trained, error_batch=10)
    for sentence in grammar[:50]:
        trainer.train_sentence(sentence)
    trainer.flush()
    long = toy_corpus(seed=5, count=3, n_min=20, n_max=30)
    default = ParserModel(Config(seed=1), build_vocab(long))  # default dims, untrained
    for k, (model, sentences) in enumerate([(trained, grammar[50:]), (default, long)]):
        parent = ParserModel(model.config, model.vocab)  # float64, where a trainer's model parses in float32
        parent.store.load_bytes(model.store.to_bytes())
        assert {p.value.dtype for p in parent.store.trainable} == {np.dtype(np.float64)}
        loaded = reloaded(model, tmp_path / f"{k}.bin")
        assert [parse(s, loaded) for s in sentences] == [parse(s, parent) for s in sentences]


def test_constant_shift_of_direction_scores_keeps_argmax():
    model, sentence = fig_model(seed=5)
    tape = Tape()
    vectors = encode_sentence(tape, model, sentence)
    pending = init_pending(tape, model, vectors, sentence)
    base = ActionScorer(tape, model).scores(pending)
    bias = model.store["mlp_u/layer1/b"]
    bias.value += 2.5
    shifted = ActionScorer(Tape(), model).scores(pending)
    bias.value -= 2.5
    assert np.allclose(shifted, base + 2.5, rtol=0.0, atol=1e-9)
    assert np.argmax(base) == np.argmax(shifted)


class EqualScorer:
    """Scores every action 0: every step is a tie, and in training every step
    violates the margin by exactly 1."""

    def __init__(self, model):
        self.n_relations = model.n_relations

    def scores(self, pending):
        return np.zeros(2 * self.n_relations * (len(pending) - 1))

    def score_tensor(self, pending, k):
        return Tensor([[0.0]])


def test_tie_break_prefers_low_position_left_low_relation():
    model, sentence = fig_model()
    lines = []
    arcs = parse(sentence, model, scorer=EqualScorer(model), trace=lines.append)
    # every step picks position 1, LEFT, relation 0: each word under the next
    first = model.rel_names[0]
    assert [line.split("\t")[1:4] for line in lines] == [["1", "LEFT", first]] * (len(sentence) - 1)
    assert arc_set(arcs) == {(i + 1, i, first) for i in range(1, len(sentence))} | {
        (0, len(sentence), model.vocab.root_label)
    }


def test_incremental_rescoring_matches_exhaustive():
    model, _ = tiny_model(seed=17)
    rng = np.random.default_rng(5)
    for _ in range(5):
        sentence = random_sentence(rng, n_min=4, n_max=10)

        def run(fresh_scorer_per_step):
            tape = Tape()
            vectors = encode_sentence(tape, model, sentence)
            pending = init_pending(tape, model, vectors, sentence)
            scorer = ActionScorer(tape, model)
            log = []
            while len(pending) > 1:
                if fresh_scorer_per_step:  # reuses only the items' products, as one scorer does
                    scorer = ActionScorer(tape, model)
                scores = scorer.scores(pending)
                log.append(scores.tolist())
                apply_action(tape, model, pending, int(np.argmax(scores)), [])
            return log

        assert run(False) == run(True)


def test_scorer_output_sizes():
    model, sentence = fig_model()
    tape = Tape()
    vectors = encode_sentence(tape, model, sentence)
    pending = init_pending(tape, model, vectors, sentence)
    scorer = ActionScorer(tape, model)
    u_out, r_out = scorer.outputs(pending)  # one column per attachment point
    assert u_out.value.shape == (2, len(pending) - 1)
    assert r_out.value.shape == (2 * model.n_relations, len(pending) - 1)
    scores = scorer.scores(pending)
    assert isinstance(scores, np.ndarray) and scores.dtype == np.float64
    assert scores.shape == (2 * model.n_relations * (len(pending) - 1),)


RELATION_NAMES = ("root", "nsubj", "dobj", "det", "nmod")


@functools.lru_cache(maxsize=None)
def model_with_relations(n_relations):
    """A tiny model whose vocabulary holds exactly ``n_relations`` relations."""
    names = RELATION_NAMES[:n_relations]
    corpus = toy_corpus(seed=n_relations, count=40, n_min=3, n_max=8, relations=names, root_relation=names[0])
    model = ParserModel(Config(seed=n_relations, **TINY), build_vocab(corpus))
    assert model.n_relations == n_relations
    rng = np.random.default_rng(n_relations)
    for name in ("pad_left", "pad_right", "mlp_u/layer0/b", "mlp_r/layer0/b", "mlp_u/layer1/b", "mlp_r/layer1/b"):
        model.store[name].value[:] = rng.uniform(-0.5, 0.5, model.store[name].value.shape)
    return model


def reference_outputs(model, pending):
    """Per-window MLP outputs in plain numpy: the six slot encodings joined, then W0 x + b0, tanh, W1 h + b1."""
    padded = [model.pad_left.value] * 2 + [item.enc.value for item in pending] + [model.pad_right.value] * 3
    outs = []
    for mlp in (model.mlp_u, model.mlp_r):
        w0, b0, w1, b1 = model.store[f"{mlp.name}/layer0/W"], mlp.b0, mlp.w1, mlp.b1
        x = np.hstack([np.vstack(padded[i - 1 : i + 5]) for i in range(1, len(pending))])
        outs.append(w1.value @ np.tanh(w0.value @ x + b0.value) + b1.value)
    return outs


def reference_scores(model, pending):
    """The reference outputs laid out in ``decode`` order, one window at a time."""
    u_out, r_out = reference_outputs(model, pending)
    flat = []
    for i in range(1, len(pending)):
        for direction in (LEFT, RIGHT):
            for relation in range(model.n_relations):
                flat.append(u_out[direction, i - 1] + r_out[2 * relation + direction, i - 1])
    return np.array(flat)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.integers(2, 12), st.data())
def test_scores_match_a_per_window_reference(n_relations, seed, n, data):
    model = model_with_relations(n_relations)
    sentence = random_sentence(np.random.default_rng(seed), n_min=n, n_max=n)
    tape = Tape()
    pending = init_pending(tape, model, encode_sentence(tape, model, sentence), sentence)
    scorer = ActionScorer(tape, model)
    while len(pending) > 1:
        scores = scorer.scores(pending)
        want = reference_scores(model, pending)
        # a score is a sum of terms that may cancel, so its error is relative to the step's scale
        np.testing.assert_allclose(scores, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        k = data.draw(st.integers(0, len(scores) - 1), label="action")
        apply_action(tape, model, pending, k, [])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_first_layer_gradient_through_the_slot_view_matches_the_joined_window(seed):
    # the full gradient, every coordinate, of a loss over every output of two steps
    model = model_with_relations(3)
    sentence = random_sentence(np.random.default_rng(seed), n_min=7, n_max=7)
    rng = np.random.default_rng(100 + seed)
    weights = [Tensor(rng.uniform(-1, 1, (2 * model.n_relations, 6))) for _ in range(2)]
    names = ["mlp_u/layer0/W", "mlp_r/layer0/W", "pad_left", "pad_right", "w_e"]
    mlps = (model.mlp_u, model.mlp_r)
    plain_w0 = [Tensor(model.store[name].value) for name in names[:2]]  # W0 in its (hidden, input) layout

    def joined_windows(tape, pending):
        # the window input as the concat of its six slots, through W0 x
        slots = [model.pad_left] * 2 + [item.enc for item in pending] + [model.pad_right] * 3
        x = tape.concat(*(tape.concat(*slots[i - 1 : i + 5]) for i in range(1, len(pending))), axis=1)
        outs = []
        for mlp, w0 in zip(mlps, plain_w0):
            b0, w1, b1 = mlp.b0, mlp.w1, mlp.b1
            outs.append(tape.add(tape.matmul(w1, tape.tanh(tape.add(tape.matmul(w0, x), b0))), b1))
        return outs

    def gradients(make_outputs, w0s):
        model.store.zero_grads()
        tape = Tape()
        pending = init_pending(tape, model, encode_sentence(tape, model, sentence), sentence)
        outputs = make_outputs(tape)
        terms = []
        for step in range(2):
            for out, w in zip(outputs(pending), weights):
                rows, cols = out.value.shape
                terms.append(tape.sum_all(tape.pointwise_mul(Tensor(w.value[:rows, :cols]), out)))
            apply_action(tape, model, pending, action_index(2, RIGHT, 1, model.n_relations), [])
        total = terms[0]
        for term in terms[1:]:
            total = tape.add(total, term)
        tape.backward(total)
        # W0's gradient in its (hidden, input) layout, as the file entry views its value
        grads = [w0.grad.reshape(model.config.mlp_hidden, -1) for w0 in w0s]
        return dict(zip(names, grads + [model.store[name].grad for name in names[2:]]))

    got = gradients(lambda tape: ActionScorer(tape, model).outputs, [mlp.w0 for mlp in mlps])
    want = gradients(lambda tape: lambda pending: joined_windows(tape, pending), plain_w0)
    for name in names:
        assert want[name].any(), name
        scale = np.abs(want[name]).max()  # sums of products that may cancel, as in the scores test
        np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-12 * scale, err_msg=name)


def test_score_tensor_agrees_with_scores():
    model, sentence = fig_model(seed=8)
    tape = Tape()
    vectors = encode_sentence(tape, model, sentence)
    pending = init_pending(tape, model, vectors, sentence)
    scorer = ActionScorer(tape, model)
    scores = scorer.scores(pending)
    assert len(scores) == 2 * model.n_relations * (len(pending) - 1)
    for k, score in enumerate(scores):
        assert scorer.score_tensor(pending, k).item() == pytest.approx(score, abs=1e-12)


def test_trace_line_format():
    model, sentence = fig_model()
    lines = []
    parse(sentence, model, trace=lines.append)
    for step, line in enumerate(lines, start=1):
        fields = line.split("\t")
        assert len(fields) == 7
        assert int(fields[0]) == step
        assert fields[2] in ("LEFT", "RIGHT")
        float(fields[6])


def test_format_trace_names_head_and_dependent():
    model, sentence = fig_model()
    tape = Tape()
    vectors = encode_sentence(tape, model, sentence)
    pending = init_pending(tape, model, vectors, sentence)
    line = format_trace(1, fig_action(model, 4, LEFT, "nmod"), 3.25, pending, model.rel_names)
    assert line.split("\t") == ["1", "4", "LEFT", "nmod", "mèo", "con", "3.2500"]
