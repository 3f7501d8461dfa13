"""The easy-first transition system with recursive tree-LSTM encoding.

Parsing keeps a *pending* list of partial structures, initially one per word.
At every step the highest-scoring attachment anywhere in the sentence is
applied: LEFT(i, r) makes pending item i a left dependent of item i+1 and
RIGHT(i, r) makes item i+1 a right dependent of item i (positions are
1-based, relation ids are dense). The attached item leaves the pending list,
its encoding feeds the receiver's left or right child LSTM, and the receiver
is re-encoded. After n-1 steps one item survives and becomes the child of the
artificial root.

Each partial structure is encoded by two LSTMs seeded with the head word's
contextual vector: the left one consumes left children nearest-first, the
right one right children nearest-first, every child as the concatenation of
its own encoding with the embedding of its relation. The structure encoding
is a tanh linear map over both final LSTM states plus the embedding of the
most recently attached relation (a learned null label before any attachment).
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .represent import encode_sentence
from .treebank import Sentence

LEFT, RIGHT = 0, 1
DIRECTIONS = ("LEFT", "RIGHT")
WINDOW_BEFORE = 2  # pending slots i-2 .. i+3 feed the scorers
WINDOW_AFTER = 3
WINDOW_SLOTS = WINDOW_BEFORE + 1 + WINDOW_AFTER


@dataclass(frozen=True)
class Arc:
    head: int  # 0 is the artificial root
    dep: int
    rel: str


class PendingItem:
    """One partial structure: its head word plus the (h, c) states of its child
    LSTMs, ``states[LEFT]`` and ``states[RIGHT]``."""

    __slots__ = ("head_index", "form", "states", "enc", "products")

    def __init__(self, head_index, form, states, enc):
        self.head_index = head_index
        self.form = form
        self.states = states
        self.enc = enc
        self.products = (None, None, [])  # (enc, tape, [products per scorer MLP]) of the last scored step


def encode_node(tape, model, states, label):
    """Structure encodings from the (h, c) states of both child LSTMs and the
    last-relation labels, one column each."""
    body = tape.concat(states[LEFT][0], states[RIGHT][0], label)
    return tape.tanh(tape.add(tape.matmul(model.w_e, body), model.b_e))


def init_pending(tape, model, word_vectors, sentence: Sentence) -> list:
    """One leaf item per word; both child LSTMs are seeded with its vector.

    ``word_vectors`` holds one column per word. The n leaves run as n columns
    of one step per child LSTM and one encoding, split per item at the end.
    """
    n = len(sentence)
    if not n:
        raise ValueError("cannot initialize pending for an empty sentence")
    nulls = tape.columns(model.null_label, [0] * n)
    seeds = tape.concat(word_vectors, nulls)  # a ShapeError unless there are n vectors
    states = [cell.step(tape, cell.project(tape, seeds)) for cell in model.tree]
    enc = encode_node(tape, model, states, nulls)
    pending = []
    for k, token in enumerate(sentence):
        col = slice(k, k + 1)
        own = [tuple(tape.columns(s, col) for s in state) for state in states]
        pending.append(PendingItem(k + 1, token.form, own, tape.columns(enc, col)))
    return pending


def decode(k: int, n_relations: int) -> tuple:
    """The (position, direction, relation) of action index k.

    Entry k of ``ActionScorer.scores`` scores this action. The layout is
    position-major (positions from 1), LEFT before RIGHT, then relation.
    """
    pair, relation = divmod(k, n_relations)
    position, direction = divmod(pair, 2)
    return position + 1, direction, relation


class ActionScorer:
    """Scores attachment points from a six-item window of encodings.

    Two MLPs share the window input x_i = enc(p_{i-2}) .. enc(p_{i+3}), with
    learned pad vectors outside the list: one scores the direction alone, the
    other direction-relation pairs (laid out relation-major). An action's
    score is the sum of its two entries. A step scores its n-1 windows as one
    batch: an item keeps its first-layer products for every slot
    (``Mlp.w0``) while its encoding and the tape stay the same, and
    ``Tape.window_sum`` adds six of them per window. Per-window work is
    elementwise, so a window's scores do not depend on the other windows.
    """

    def __init__(self, tape: Tape, model):
        self.tape = tape
        self.model = model
        self._mlps = (model.mlp_u, model.mlp_r)
        self._pads = [([tape.matmul(m.w0, model.pad_left)] * WINDOW_BEFORE,
                       [tape.matmul(m.w0, model.pad_right)] * (WINDOW_AFTER - 1)) for m in self._mlps]
        self._memo = ((), None)  # the last step's pending encodings and outputs

    def outputs(self, pending):
        """The step's (2, n-1) direction and (2R, n-1) relation outputs; column i-1 is point i."""
        encs = tuple(item.enc for item in pending)
        if self._memo[0] != encs:
            todo = [item for item in pending if item.products[:2] != (item.enc, self.tape)]
            if todo:
                x = self.tape.concat(*(item.enc for item in todo), axis=1)
                batch = [self.tape.matmul(m.w0, x) for m in self._mlps]
                for j, item in enumerate(todo):
                    item.products = (item.enc, self.tape, [self.tape.columns(b, slice(j, j + 1)) for b in batch])
            out = []
            for m, (mlp, (left, right)) in enumerate(zip(self._mlps, self._pads)):
                cols = left + [item.products[2][m] for item in pending] + right
                out.append(mlp.apply(self.tape, self.tape.window_sum(cols, WINDOW_SLOTS)))
            self._memo = (encs, tuple(out))
        return self._memo[1]

    def scores(self, pending) -> np.ndarray:
        """The 2R(n-1) action scores as one flat array, in ``decode`` order."""
        u_out, r_out = self.outputs(pending)
        # relation-major (R, 2, n-1) rows to (position, direction, relation)
        r_by_point = r_out.value.reshape(-1, 2, len(pending) - 1).transpose(2, 1, 0)
        return (u_out.value.T[:, :, None] + r_by_point).ravel()

    def score_tensor(self, pending, k: int):
        """The scalar score of action k as a graph node, for loss terms."""
        position, direction, relation = decode(k, self.model.n_relations)
        point = slice(position - 1, position)
        u_out, r_out = self.outputs(pending)
        return self.tape.add(
            self.tape.pick_row(self.tape.columns(u_out, point), direction),
            self.tape.pick_row(self.tape.columns(r_out, point), relation * 2 + direction),
        )


def head_and_dep(pending, position: int, direction: int):
    """The (head, dependent) pending items of an attachment at a position."""
    left, right = pending[position - 1], pending[position]
    return (right, left) if direction == LEFT else (left, right)


def apply_action(tape, model, pending, k: int, arcs: list) -> None:
    """Attach action k, record the arc, feed the child into the receiver, re-encode."""
    position, direction, relation = decode(k, model.n_relations)
    if not 1 <= position < len(pending):
        raise ValueError(f"action {k} (position {position}) invalid for {len(pending)} pending items")
    head, dep = head_and_dep(pending, position, direction)
    arcs.append(Arc(head.head_index, dep.head_index, model.rel_names[relation]))
    label = tape.pick_row(model.rel_emb, relation)
    cell = model.tree[direction]
    child = tape.concat(dep.enc, label)
    head.states[direction] = cell.step(tape, cell.project(tape, child), head.states[direction])
    head.enc = encode_node(tape, model, head.states, label)
    pending.remove(dep)


def parse(sentence: Sentence, model, scorer=None, trace=None) -> list:
    """Greedy parse: apply the best-scoring action until one item remains.

    Returns n arcs including the root arc. ``scorer`` may override the neural
    scorer (it must provide ``scores(pending)``); ``trace`` is an optional
    callable receiving one formatted line per step. Ties break canonically:
    lowest position, then LEFT, then lowest relation, because ``argmax``
    keeps the first maximum. No gradient is taken, so the tape keeps no record.
    """
    tape = Tape(record=False)
    arcs = []
    if len(sentence) == 0:
        return arcs
    vectors = encode_sentence(tape, model, sentence)
    pending = init_pending(tape, model, vectors, sentence)
    if scorer is None:
        scorer = ActionScorer(tape, model)
    step = 0
    while len(pending) > 1:
        step += 1
        scores = scorer.scores(pending)
        k = int(np.argmax(scores))
        if trace is not None:
            trace(format_trace(step, k, scores[k], pending, model.rel_names))
        apply_action(tape, model, pending, k, arcs)
    arcs.append(Arc(0, pending[0].head_index, model.vocab.root_label))
    return arcs


def format_trace(step: int, k: int, score: float, pending, rel_names) -> str:
    position, direction, relation = decode(k, len(rel_names))
    head, dep = head_and_dep(pending, position, direction)
    return "\t".join(
        (
            str(step),
            str(position),
            DIRECTIONS[direction],
            rel_names[relation],
            head.form,
            dep.form,
            f"{score:.4f}",
        )
    )


def arcs_to_rows(arcs, n: int) -> list:
    """Per-token (head, deprel) rows from an arc list; errors on bad coverage."""
    rows = [None] * n
    for arc in arcs:
        if not 1 <= arc.dep <= n or rows[arc.dep - 1] is not None:
            raise ValueError(f"arc list does not cover tokens 1..{n} exactly once")
        rows[arc.dep - 1] = (arc.head, arc.rel)
    if any(r is None for r in rows):
        raise ValueError(f"arc list does not cover tokens 1..{n} exactly once")
    return rows
