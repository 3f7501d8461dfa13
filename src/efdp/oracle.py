"""Dynamic-oracle validity rules, margin loss, and the training loop.

An action proposing arc (head, modifier, relation) is valid when the modifier
is *complete* (none of its gold children is still waiting in the pending
list) and either the arc matches the gold tree exactly, or the modifier's
gold head has already been removed from the pending list by an earlier
mistake, in which case any head is acceptable as long as the relation matches
gold. Tokens whose gold head is the artificial root are never treated as
orphaned; the surviving item is attached to the root at the end regardless.

Training follows the parser's own trajectory. At every step a
margin-violation term 1 - score(best valid) + score(best invalid) joins the
error window when positive. Exploration then decides only which action is
applied: when the best invalid action beats the best valid one by more than
the margin, the model's (invalid) choice is applied so later steps see error
states; otherwise the best valid action is. Once more than ``error_batch``
terms have accumulated, the summed loss is backpropagated once and the
parameters take an Adam step.
"""

import logging
import time

import numpy as np

from .autodiff import Tape, Tensor
from .easyfirst import (LEFT, RIGHT, ActionScorer, apply_action, arcs_to_rows, head_and_dep, init_pending,
                        parse)
from .evaluate import score as eval_score
from .represent import encode_sentence

log = logging.getLogger(__name__)


class OracleState:
    """Gold arcs plus enough bookkeeping to judge actions mid-parse."""

    def __init__(self, sentence, rel_index):
        self.gold_head = {}
        self.gold_rel = {}
        self.remaining = {t.index: 0 for t in sentence}
        self.live = {t.index for t in sentence}
        for t in sentence:
            self.gold_head[t.index] = t.head
            self.gold_rel[t.index] = rel_index.get(t.deprel, -1)
            if t.head != 0:
                self.remaining[t.head] += 1

    def on_attach(self, dep_pos: int) -> None:
        """Record that the token at dep_pos left the pending list."""
        self.live.discard(dep_pos)
        head = self.gold_head[dep_pos]
        if head != 0:
            self.remaining[head] -= 1

    def complete(self, pos: int) -> bool:
        return self.remaining[pos] == 0

    def orphaned(self, pos: int) -> bool:
        head = self.gold_head[pos]
        return head != 0 and head not in self.live


def is_valid(position: int, direction: int, relation: int, state: OracleState, pending) -> bool:
    head, dep = head_and_dep(pending, position, direction)
    m = dep.head_index
    if not state.complete(m):
        return False
    if relation != state.gold_rel[m]:
        return False
    return state.gold_head[m] == head.head_index or state.orphaned(m)


def hinge_margin(scores, valid):
    """(best valid index, best invalid index or None, margin loss value).

    ``scores`` and the boolean ``valid`` mask are flat arrays over the
    candidate actions; ties break canonically, since ``argmax`` keeps the
    first maximum.
    """
    if not valid.any():
        raise RuntimeError("no valid action available; the oracle is inconsistent")
    best_valid = int(np.argmax(np.where(valid, scores, -np.inf)))
    if valid.all():
        return best_valid, None, 0.0
    best_invalid = int(np.argmax(np.where(valid, -np.inf, scores)))
    return best_valid, best_invalid, max(0.0, float(1.0 - scores[best_valid] + scores[best_invalid]))


def hinge_loss(tape, margin, score_tensor):
    """Margin-1 hinge over best valid vs best invalid, as a graph node.

    ``margin`` is the triple ``hinge_margin`` returned for this step.
    Returns None when the margin is already satisfied (or nothing is
    invalid), so zero-loss steps add nothing to the graph. ``score_tensor``
    maps an action index to its scalar score node.
    """
    best_valid, best_invalid, loss = margin
    if best_invalid is None or loss <= 0.0:
        return None
    one = Tensor([[1.0]])
    return tape.add(tape.sub(one, score_tensor(best_valid)), score_tensor(best_invalid))


class Trainer:
    """Single-threaded trainer with deferred updates.

    One tape accumulates the graphs of every sentence in the current error
    window; backward runs once per update. An update can fire mid-sentence,
    after which the sentence continues on a fresh tape: already-built
    encodings stay as constants, while new scores are recomputed so their
    loss terms carry gradients.
    """

    def __init__(self, model, error_batch=None, scorer_factory=None):
        cfg = model.config
        self.model = model
        self.error_batch = cfg.error_batch if error_batch is None else error_batch
        self.explore = cfg.explore
        self.rng = np.random.default_rng(cfg.seed)
        self.scorer_factory = scorer_factory or (lambda tape, model, sentence: ActionScorer(tape, model))
        self.tape = Tape()
        self.losses = []  # margin-violation terms of the current error window
        self.updates = 0

    def _update(self) -> None:
        self.tape.backward(self.tape.sum_all(self.tape.concat(*self.losses, axis=1)))
        self.model.store.adam_step(self.model.config.lr)
        self.updates += 1
        self.tape = Tape()
        self.losses = []

    def flush(self) -> None:
        """Trailing update for whatever is left in the window."""
        if self.losses:
            self._update()

    def train_sentence(self, sentence) -> float:
        """Run one training parse; returns the sentence's summed loss value."""
        if len(sentence) < 2:
            return 0.0
        model = self.model
        tape = self.tape
        vectors = encode_sentence(tape, model, sentence, self.rng)
        pending = init_pending(tape, model, vectors, sentence)
        scorer = self.scorer_factory(tape, model, sentence)
        state = OracleState(sentence, model.vocab.rels)
        relations = range(model.n_relations)
        arcs = []
        sentence_loss = 0.0
        while len(pending) > 1:
            scores = scorer.scores(pending)
            # candidates in ``decode`` order, so mask index k is action k
            valid = np.array([
                is_valid(i, d, r, state, pending)
                for i in range(1, len(pending)) for d in (LEFT, RIGHT) for r in relations
            ])
            margin = best_valid, best_invalid, loss = hinge_margin(scores, valid)
            if loss > 0.0:  # charged whichever action is applied
                self.losses.append(hinge_loss(tape, margin, lambda k: scorer.score_tensor(pending, k)))
                sentence_loss += loss
            choice = best_valid
            if self.explore and best_invalid is not None and scores[best_invalid] > 1.0 + scores[best_valid]:
                choice = best_invalid  # follow the model into the error state
            apply_action(tape, model, pending, choice, arcs)
            state.on_attach(arcs[-1].dep)
            if len(self.losses) > self.error_batch:
                self._update()
                tape = self.tape
                scorer = self.scorer_factory(tape, model, sentence)
        return sentence_loss


def train(corpus, model, epochs, dev=None):
    """Train for ``epochs`` passes with per-epoch shuffling and dev scoring.

    Keeps the parameters from the epoch with the best dev UAS (when dev is
    given). Returns the per-epoch metric records.
    """
    if not corpus:
        raise ValueError("empty training corpus")
    trainer = Trainer(model)
    order_rng = np.random.default_rng(model.config.seed + 1)
    tokens = sum(len(s) for s in corpus)
    metrics = []
    best = None
    best_params = None
    for epoch in range(1, epochs + 1):
        started = time.perf_counter()
        updates_before = trainer.updates
        order = order_rng.permutation(len(corpus))
        loss = sum(trainer.train_sentence(corpus[int(i)]) for i in order)
        trainer.flush()
        seconds = time.perf_counter() - started
        record = {
            "epoch": epoch,
            "sentences": len(corpus),
            "loss": loss,
            "updates": trainer.updates - updates_before,
            "seconds": seconds,
            "tok_s": tokens / max(seconds, 1e-9),
        }
        if dev:
            predicted = [arcs_to_rows(parse(s, model), len(s)) for s in dev]
            result = eval_score(dev, predicted)
            record["dev_uas"] = result.uas
            record["dev_las"] = result.las
            if best is None or result.uas > best:
                best = result.uas
                best_params = model.store.to_bytes()
        metrics.append(record)
        log.info(
            "epoch {epoch} sentences {sentences} loss {loss:.4f} updates {updates} seconds {seconds:.2f} "
            "tok/s {tok_s:.1f}".format(**record)
            + (
                " dev_uas {dev_uas:.2f} dev_las {dev_las:.2f}".format(**record)
                if dev
                else ""
            )
        )
    if best_params is not None:
        model.store.load_bytes(best_params)
    return metrics
