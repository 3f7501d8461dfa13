import dataclasses
import itertools
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from efdp import oracle
from efdp.autodiff import ParameterStore, Tape, Tensor
from efdp.config import Config
from efdp.easyfirst import LEFT, RIGHT, ActionScorer, PendingItem, arcs_to_rows, decode, head_and_dep, parse
from efdp.evaluate import score
from efdp.model import ParserModel
from efdp.oracle import OracleState, Trainer, hinge_loss, hinge_margin, is_valid, train
from efdp.represent import build_vocab
from efdp.synthetic import grammar_corpus, random_sentence
from efdp.treebank import Sentence, Token
from helpers import TINY, tiny_model
from test_easyfirst import EqualScorer, fig_model, fig_sentence


class SimItem:
    """Stand-in pending item: the oracle only reads head_index."""

    def __init__(self, pos):
        self.head_index = pos


def sim_pending(sentence):
    return [SimItem(t.index) for t in sentence]


def sim_apply(pending, action):
    position, direction, _ = action
    head, dep = head_and_dep(pending, position, direction)
    pending.remove(dep)
    return head.head_index, dep.head_index


def candidates(pending, n_relations):
    """Every (position, direction, relation) for a pending list, in score order."""
    return list(itertools.product(range(1, len(pending)), (LEFT, RIGHT), range(n_relations)))


def state_of(sentence, rels, pending):
    """The oracle state is a function of which tokens are still pending."""
    state = OracleState(sentence, rels)
    present = {p.head_index for p in pending}
    for t in sentence:
        if t.index not in present:
            state.on_attach(t.index)
    return state


def rel_index(sentence):
    rels = {}
    for t in sentence:
        rels.setdefault(t.deprel, len(rels))
    return rels


def test_figure_one_initial_validity():
    sentence = fig_sentence()
    rels = rel_index(sentence)
    state = OracleState(sentence, rels)
    pending = sim_pending(sentence)
    # attaching "con" under "mèo" with nmod matches gold and con is a leaf
    assert is_valid(4, LEFT, rels["nmod"], state, pending)
    # wrong direction for the subject pair
    assert not is_valid(1, RIGHT, rels["nsubj"], state, pending)
    # right pair and relation, but "mèo" still has unattached children
    assert not is_valid(2, RIGHT, rels["dobj"], state, pending)
    # right arc, wrong relation
    assert not is_valid(4, LEFT, rels["det"], state, pending)


def test_modifier_completeness_unblocks_after_children_attach():
    sentence = fig_sentence()
    rels = rel_index(sentence)
    state = OracleState(sentence, rels)
    pending = sim_pending(sentence)
    for action in ((4, LEFT, rels["nmod"]), (3, LEFT, rels["det"])):
        assert is_valid(*action, state, pending)
        _, dep = sim_apply(pending, action)
        state.on_attach(dep)
    assert is_valid(2, RIGHT, rels["dobj"], state, pending)


def test_orphaned_modifier_may_attach_anywhere_with_gold_relation():
    # gold: 1 -> 3 (a), 2 -> 3 (b), 3 is root
    tokens = (
        Token(1, "x", "N", 3, "a"),
        Token(2, "y", "N", 3, "b"),
        Token(3, "z", "V", 0, "root"),
    )
    sentence = Sentence(tokens)
    rels = rel_index(sentence)
    state = OracleState(sentence, rels)
    pending = sim_pending(sentence)
    # mistake: attach the root token under y, removing token 3 from pending
    _, dep = sim_apply(pending, (2, RIGHT, rels["b"]))
    state.on_attach(dep)
    assert [p.head_index for p in pending] == [1, 2]
    # token 1 lost its gold head: any head is fine if the relation is gold
    assert is_valid(1, LEFT, rels["a"], state, pending)
    assert not is_valid(1, LEFT, rels["b"], state, pending)


def test_root_headed_tokens_are_never_orphaned():
    tokens = (Token(1, "x", "N", 2, "a"), Token(2, "y", "V", 0, "root"))
    sentence = Sentence(tokens)
    rels = rel_index(sentence)
    state = OracleState(sentence, rels)
    pending = sim_pending(sentence)
    # RIGHT would absorb the root-headed token; gold never allows it
    assert not is_valid(1, RIGHT, rels["root"], state, pending)
    assert not is_valid(1, RIGHT, rels["a"], state, pending)
    assert is_valid(1, LEFT, rels["a"], state, pending)


def oracle_rollout(sentence, rng):
    """Follow uniformly-chosen valid actions; returns the produced arc set."""
    rels = rel_index(sentence)
    names = {i: r for r, i in rels.items()}
    state = OracleState(sentence, rels)
    pending = sim_pending(sentence)
    arcs = set()
    while len(pending) > 1:
        valid = [a for a in candidates(pending, len(rels)) if is_valid(*a, state, pending)]
        assert valid, "oracle offered no valid action"
        choice = valid[int(rng.integers(0, len(valid)))]
        head, dep = sim_apply(pending, choice)
        arcs.add((head, dep, names[choice[2]]))
        state.on_attach(dep)
    arcs.add((0, pending[0].head_index, "root"))
    return arcs


def gold_arcs(sentence):
    return {(t.head, t.index, t.deprel) for t in sentence}


def test_oracle_reconstructs_gold_trees():
    rng = np.random.default_rng(77)
    for _ in range(200):
        sentence = random_sentence(rng, n_min=2, n_max=10)
        assert oracle_rollout(sentence, rng) == gold_arcs(sentence)


def test_valid_actions_are_sound_when_gold_head_is_live():
    rng = np.random.default_rng(11)
    for _ in range(50):
        sentence = random_sentence(rng, n_min=2, n_max=8)
        rels = rel_index(sentence)
        state = OracleState(sentence, rels)
        pending = sim_pending(sentence)
        while len(pending) > 1:
            valid = [a for a in candidates(pending, len(rels)) if is_valid(*a, state, pending)]
            for position, direction, relation in valid:
                head, dep = head_and_dep(pending, position, direction)
                m = dep.head_index
                assert state.gold_rel[m] == relation
                if not state.orphaned(m):
                    assert state.gold_head[m] == head.head_index
            choice = valid[int(rng.integers(0, len(valid)))]
            _, dep = sim_apply(pending, choice)
            state.on_attach(dep)


class DrawnRng:
    """Stands in for a numpy Generator; hypothesis picks every integer."""

    def __init__(self, draw):
        self.draw = draw

    def integers(self, low, high):
        return self.draw(st.integers(low, high - 1))


@settings(max_examples=200)
@given(st.data())
def test_every_reachable_state_offers_a_valid_action(data):
    rng = DrawnRng(data.draw)
    sentence = random_sentence(rng, n_min=2, n_max=10, relations=("a", "b", "c"))
    rels = rel_index(sentence)
    state = OracleState(sentence, rels)
    pending = sim_pending(sentence)
    while len(pending) > 1:
        actions = candidates(pending, len(rels))
        valid = np.array([is_valid(*a, state, pending) for a in actions])
        assert valid.any(), "oracle offered no valid action"
        hinge_margin(np.zeros(len(actions)), valid)
        # follow any action, valid or not, into the next state
        _, dep = sim_apply(pending, data.draw(st.sampled_from(actions)))
        state.on_attach(dep)


# ---- hinge loss ----


def scored(scores, valid):
    return np.array(scores, dtype=float), np.array(valid)


def score_at(scores):
    return lambda k: Tensor([[scores[k]]])


def test_margin_satisfied_returns_none():
    scores, valid = scored([3.0, 1.5], [True, False])
    t = Tape()
    assert hinge_loss(t, hinge_margin(scores, valid), score_at(scores)) is None


def test_tied_scores_cost_exactly_the_margin():
    scores, valid = scored([1.0, 1.0], [True, False])
    _, _, loss = hinge_margin(scores, valid)
    assert loss == 1.0
    # among equal scores the first valid and the first invalid index win
    assert hinge_margin(*scored([2.0] * 4, [False, True, False, True])) == (1, 0, 1.0)
    t = Tape()
    term = hinge_loss(t, hinge_margin(scores, valid), score_at(scores))
    assert term.item() == 1.0


def test_no_invalid_actions_means_no_loss():
    scores, valid = scored([0.5, 0.2], [True, True])
    assert hinge_loss(Tape(), hinge_margin(scores, valid), score_at(scores)) is None


def test_no_valid_action_is_an_internal_error():
    scores, valid = scored([0.5], [False])
    with pytest.raises(RuntimeError):
        hinge_margin(scores, valid)


def brute_force_hinge(scores, valid):
    best_g = max(s for s, v in zip(scores, valid) if v)
    rest = [s for s, v in zip(scores, valid) if not v]
    if not rest:
        return 0.0
    return max(0.0, 1.0 - best_g + max(rest))


def test_hinge_matches_brute_force_on_random_configurations():
    rng = np.random.default_rng(4)
    for _ in range(500):
        k = int(rng.integers(2, 12))
        scores = rng.uniform(-5, 5, k).tolist()
        valid = [bool(rng.integers(0, 2)) for _ in range(k)]
        if not any(valid):
            valid[int(rng.integers(0, k))] = True
        expected = brute_force_hinge(scores, valid)
        scores, valid = scored(scores, valid)
        _, _, got = hinge_margin(scores, valid)
        assert got == pytest.approx(expected, abs=0.0)
        term = hinge_loss(Tape(), hinge_margin(scores, valid), score_at(scores))
        if expected > 0 and any(not v for v in valid):
            assert term.item() == pytest.approx(expected, abs=0.0)
        else:
            assert term is None


def test_hinge_gradient_flows_to_both_chosen_scores():
    store = ParameterStore()
    s = store.add("s", np.array([[0.2], [0.1], [0.4]]))
    t = Tape()
    valid = np.array([True, False, False])
    term = hinge_loss(t, hinge_margin(s.value[:, 0].copy(), valid), lambda k: t.pick_row(s, k))
    t.backward(term)
    assert s.grad[0, 0] == -1.0  # best valid pushed up
    assert s.grad[2, 0] == 1.0  # best invalid pushed down
    assert s.grad[1, 0] == 0.0


# ---- training dynamics ----


class OmniscientScorer:
    """Scores valid actions far above the margin; training should be silent."""

    def __init__(self, model, sentence):
        self.model = model
        self.sentence = sentence

    def scores(self, pending):
        state = state_of(self.sentence, self.model.vocab.rels, pending)
        self.last = np.array([
            10.0 if is_valid(*a, state, pending) else 0.0
            for a in candidates(pending, self.model.n_relations)
        ])
        return self.last

    def score_tensor(self, pending, k):
        return Tensor([[self.last[k]]])


def test_zero_loss_model_never_updates():
    model, corpus = tiny_model(seed=21, count=6)

    def factory(tape, m, sentence):
        scorer = OmniscientScorer(m, sentence)
        return scorer

    trainer = Trainer(model, scorer_factory=factory)
    before = model.store.to_bytes()
    for sentence in corpus:
        out = trainer.train_sentence(sentence)
        # the omniscient scorer must also drive the state forward
    trainer.flush()
    assert trainer.updates == 0
    assert trainer.losses == []
    assert model.store.to_bytes() == before


def test_trainer_scores_actions_in_decode_order():
    # the trainer's mask must list candidates in ``decode`` order: the best
    # valid index it takes a loss term for must decode to a valid action,
    # and the best invalid index to an invalid one
    model, corpus = tiny_model(seed=23, count=8)
    rng = np.random.default_rng(3)
    judged = []

    class RandomScorer:
        def __init__(self, sentence):
            self.sentence = sentence

        def scores(self, pending):
            self.last = rng.uniform(-1, 1, 2 * model.n_relations * (len(pending) - 1))
            return self.last

        def score_tensor(self, pending, k):
            state = state_of(self.sentence, model.vocab.rels, pending)
            judged.append(is_valid(*decode(k, model.n_relations), state, pending))
            return Tensor([[self.last[k]]])

    trainer = Trainer(model, scorer_factory=lambda tape, m, s: RandomScorer(s))
    for sentence in corpus:
        trainer.train_sentence(sentence)
    assert len(judged) >= 20
    assert judged == [True, False] * (len(judged) // 2)


def test_error_window_triggers_exactly_one_update_past_threshold():
    model, _ = tiny_model(seed=22, count=4)
    trainer = Trainer(model, scorer_factory=lambda tape, m, s: EqualScorer(m), error_batch=50)
    # sentences of length 6 contribute 5 error steps each
    sentence = random_sentence(np.random.default_rng(0), n_min=6, n_max=6)
    steps = 0
    while steps + 5 <= 50:  # stay at or below the threshold: no update yet
        trainer.train_sentence(sentence)
        steps += 5
    assert trainer.updates == 0 and len(trainer.losses) == steps
    trainer.train_sentence(sentence)  # crosses 51
    assert trainer.updates == 1
    assert len(trainer.losses) == (steps + 5) - 51
    trainer.flush()
    assert trainer.updates == 2
    assert trainer.losses == []


def test_exploration_follows_confident_invalid_choice_and_charges_its_violation(monkeypatch):
    sentence = fig_sentence()
    model, _ = fig_model(seed=1)

    class OverconfidentScorer:
        def __init__(self, m):
            self.n_relations = m.n_relations

        def scores(self, pending):
            actions = candidates(pending, self.n_relations)
            state = OracleState(sentence, model.vocab.rels)
            # score one clearly invalid action sky-high on the first call only
            self.last = np.zeros(len(actions))
            if len(pending) == 5:
                for k, a in enumerate(actions):
                    if not is_valid(*a, state, pending):
                        self.last[k] = 99.0
                        break
            return self.last

        def score_tensor(self, pending, k):
            return Tensor([[self.last[k]]])

    applied = []
    real_apply = oracle.apply_action

    def recording_apply(tape, m, pending, k, arcs):
        real_apply(tape, m, pending, k, arcs)
        applied.append(arcs[-1])

    monkeypatch.setattr(oracle, "apply_action", recording_apply)

    def first_arc_and_terms():
        applied.clear()
        trainer = Trainer(model, scorer_factory=lambda tape, m, s: OverconfidentScorer(m))
        trainer.train_sentence(sentence)
        return applied[0], len(trainer.losses)

    assert model.config.explore
    explored_arc, explored_terms = first_arc_and_terms()
    model.config = dataclasses.replace(model.config, explore=False)
    obedient_arc, obedient_terms = first_arc_and_terms()
    assert explored_arc != obedient_arc  # the explored step follows the invalid choice
    assert explored_terms == 4  # and its violation joins the window like every other step's
    assert obedient_terms == 4  # margin violated on every step


def test_confident_errors_are_charged_so_seed_41_learns_the_grammar():
    # exploration follows the steps with the largest margin violations; when
    # they went uncharged, this run read 51.3 % held-out LAS
    corpus = grammar_corpus(41, 240)
    sentences, heldout = corpus[:200], corpus[200:]
    model = ParserModel(Config(seed=41), build_vocab(sentences))
    trainer = Trainer(model, error_batch=10)
    for sentence in sentences:
        trainer.train_sentence(sentence)
    trainer.flush()
    rows = [arcs_to_rows(parse(s, model), len(s)) for s in heldout]
    assert score(heldout, rows).las >= 80.0


def test_scores_after_a_mid_sentence_update_use_the_updated_parameters(monkeypatch):
    # with error_batch=0 every margin error updates at once, mostly mid-sentence;
    # each later score must come from the updated W0 and carry its gradient
    model, corpus = tiny_model(seed=29, count=8)
    checks = []  # (first step of its scorer, scores, a fresh scorer's scores on copies of the items)
    made = []  # the sentence each scorer was made for

    class CheckedScorer(ActionScorer):
        def scores(self, pending):
            got = super().scores(pending)
            copies = [PendingItem(p.head_index, p.form, list(p.states), p.enc) for p in pending]
            checks.append((not hasattr(self, "seen"), got, ActionScorer(Tape(), self.model).scores(copies)))
            self.seen = True
            return got

    # slots 2 and 3 hold the attachment's own two items, never a pad; W0's gradient is read in
    # its (hidden, input) layout
    v = model.v_dim
    grads = []
    adam_step = model.store.adam_step

    def checked_adam_step(*args):
        middle = [m.w0.grad.reshape(model.config.mlp_hidden, -1)[:, 2 * v : 4 * v]
                  for m in (model.mlp_u, model.mlp_r)]
        grads.append([np.abs(g).max() for g in middle])
        adam_step(*args)

    monkeypatch.setattr(model.store, "adam_step", checked_adam_step)
    trainer = Trainer(model, error_batch=0,
                      scorer_factory=lambda tape, m, sentence: made.append(sentence) or CheckedScorer(tape, m))
    for sentence in corpus:
        trainer.train_sentence(sentence)
    assert len(made) - len(set(made)) >= 5  # scorers made after a mid-sentence update
    assert trainer.updates == len(grads) >= 5
    # two different actions always differ in their relation scorer's rows; the direction
    # scorer's rows cancel when the two share a position and a direction
    assert all(g_r > 0.0 for _, g_r in grads) and any(g_u > 0.0 for g_u, _ in grads)
    for first, got, fresh in checks:
        if first:  # every item's products are new, as in the fresh scorer
            assert np.array_equal(got, fresh)
        np.testing.assert_allclose(got, fresh, rtol=1e-12, atol=1e-12 * np.abs(fresh).max())


def test_oracle_state_counts_remaining_children():
    sentence = fig_sentence()
    state = OracleState(sentence, rel_index(sentence))
    assert state.remaining[5] == 2 and state.remaining[2] == 2
    state.on_attach(4)
    assert state.remaining[5] == 1
    state.on_attach(3)
    assert state.remaining[5] == 0 and state.complete(5)


def test_train_requires_sentences():
    model, _ = tiny_model(seed=1)
    with pytest.raises(ValueError):
        train([], model, 1)


def test_train_records_metrics_and_stays_finite():
    model, _ = tiny_model(seed=30)
    corpus = grammar_corpus(seed=2, count=6)
    vocab = build_vocab(corpus)
    model = ParserModel(Config(seed=5, **TINY), vocab)
    metrics = train(corpus, model, 2, dev=corpus)
    assert len(metrics) == 2
    for record in metrics:
        assert np.isfinite(record["loss"])
        assert record["sentences"] == 6
        assert "dev_uas" in record and "dev_las" in record


def test_train_with_dev_keeps_the_best_epoch_in_the_masters_and_the_float32_copies(tmp_path, monkeypatch):
    corpus = grammar_corpus(seed=1, count=16)
    sentences, dev = corpus[:12], corpus[12:]
    model = ParserModel(Config(seed=1, **TINY), build_vocab(corpus))
    kept = []  # the parameters of each epoch that was best so far
    to_bytes = model.store.to_bytes
    monkeypatch.setattr(model.store, "to_bytes", lambda: kept.append(to_bytes()) or kept[-1])
    metrics = train(sentences, model, 3, dev=dev)
    monkeypatch.undo()
    uas = [record["dev_uas"] for record in metrics]
    assert uas.index(max(uas)) < len(uas) - 1  # the last epoch is not the one kept
    assert model.store.to_bytes() == kept[-1]
    path = str(tmp_path / "model.bin")
    model.save(path)
    loaded = ParserModel.load(path)

    class RecordingScorer(ActionScorer):
        def scores(self, pending):
            got = super().scores(pending)
            self.seen.append(got.tobytes())
            return got

    def scores_of(m):
        seen = []
        for sentence in dev:
            scorer = RecordingScorer(Tape(record=False), m)
            scorer.seen = seen
            parse(sentence, m, scorer=scorer)
        return seen

    in_memory = scores_of(model)
    assert len(in_memory) == sum(len(s) - 1 for s in dev) and in_memory == scores_of(loaded)


def test_train_logs_seconds_and_speed_in_each_epoch_line(caplog):
    corpus = grammar_corpus(seed=2, count=6)
    model = ParserModel(Config(seed=5, **TINY), build_vocab(corpus))
    caplog.set_level(logging.INFO, logger="efdp.oracle")
    metrics = train(corpus, model, 2)
    lines = [m for m in caplog.messages if m.startswith("epoch ")]
    assert len(lines) == 2
    tokens = sum(len(s) for s in corpus)
    for line, record in zip(lines, metrics):
        match = re.fullmatch(r"epoch (\d+) sentences 6 loss [-\d.]+ updates \d+ seconds ([\d.]+) tok/s ([\d.]+)", line)
        assert match, line
        assert int(match[1]) == record["epoch"]
        assert float(match[2]) == round(record["seconds"], 2)
        assert record["tok_s"] == pytest.approx(tokens / record["seconds"])
        assert float(match[3]) == round(record["tok_s"], 1)
