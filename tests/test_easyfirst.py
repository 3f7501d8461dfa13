import numpy as np
import pytest

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
from efdp.represent import build_vocab, encode_sentence
from efdp.config import Config
from efdp.model import ParserModel
from efdp.synthetic import random_sentence
from efdp.treebank import Sentence, Token, is_projective, validate_tree
from helpers import TINY, action_index, tiny_model

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


def manual_lstm_step(cell, h, c, x):
    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    def pre(gate):
        return cell.w_x[gate].value @ x + cell.w_h[gate].value @ h + cell.b[gate].value

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
        h_l, _ = manual_lstm_step(model.tree_left, zeros, zeros, seed)
        h_r, _ = manual_lstm_step(model.tree_right, zeros, zeros, seed)
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
    arcs = parse(sentence, model)
    assert arc_set(arcs) == {(0, 1, "root")}


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
                if fresh_scorer_per_step:  # an empty cache scores every window
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
    u_out, r_out = scorer.outputs(pending, 1)
    assert u_out.value.shape == (2, 1)
    assert r_out.value.shape == (2 * model.n_relations, 1)
    scores = scorer.scores(pending)
    assert isinstance(scores, np.ndarray) and scores.dtype == np.float64
    assert scores.shape == (2 * model.n_relations * (len(pending) - 1),)


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
