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

from .autodiff import Tape
from .represent import encode_sentence
from .treebank import Sentence

LEFT, RIGHT = 0, 1
DIRECTIONS = ("LEFT", "RIGHT")
WINDOW_BEFORE = 2  # pending slots i-2 .. i+3 feed the scorers
WINDOW_AFTER = 3


@dataclass
class Action:
    position: int  # attachment point, 1-based: acts on pending pair (i, i+1)
    direction: int  # LEFT or RIGHT
    relation: int
    score: float = 0.0


@dataclass(frozen=True)
class Arc:
    head: int  # 0 is the artificial root
    dep: int
    rel: str


class PendingItem:
    """One partial structure: its head word plus both child-LSTM states."""

    __slots__ = ("uid", "version", "head_index", "form", "left_state", "right_state",
                 "left_children", "right_children", "last_rel", "enc")

    def __init__(self, uid, head_index, form, left_state, right_state, enc):
        self.uid = uid
        self.version = 0
        self.head_index = head_index
        self.form = form
        self.left_state = left_state
        self.right_state = right_state
        self.left_children = []  # head positions, nearest child first
        self.right_children = []
        self.last_rel = None  # relation id of the most recent attachment
        self.enc = enc


def encode_node(tape, model, item: PendingItem):
    """Recompute a structure encoding from the item's current LSTM states."""
    if item.last_rel is None:
        label = model.null_label
    else:
        label = tape.pick_row(model.rel_emb, item.last_rel)
    body = tape.concat(item.left_state[0], item.right_state[0], label)
    return tape.tanh(tape.add(tape.matmul(model.w_e, body), model.b_e))


def init_pending(tape, model, word_vectors, sentence: Sentence) -> list:
    """One leaf item per word; both child LSTMs are seeded with its vector."""
    if not word_vectors:
        raise ValueError("cannot initialize pending for an empty sentence")
    pending = []
    for pos, (v, token) in enumerate(zip(word_vectors, sentence), start=1):
        seed = tape.concat(v, model.null_label)
        left = model.tree_left.step(tape, *model.tree_left.initial_state(), seed)
        right = model.tree_right.step(tape, *model.tree_right.initial_state(), seed)
        item = PendingItem(pos, pos, token.form, left, right, None)
        item.enc = encode_node(tape, model, item)
        pending.append(item)
    return pending


def enumerate_actions(pending_size: int, n_relations: int) -> list:
    """All 2R(n-1) candidate actions for the current pending list."""
    if pending_size < 2:
        raise ValueError(f"no actions for a pending list of size {pending_size}")
    return [
        Action(i, d, r)
        for i in range(1, pending_size)
        for d in (LEFT, RIGHT)
        for r in range(n_relations)
    ]


class ActionScorer:
    """Scores attachment points from a six-item window of encodings.

    Two MLPs share the window input x_i = enc(p_{i-2}) .. enc(p_{i+3}), with
    learned pad vectors outside the list: one scores the direction alone, the
    other direction-relation pairs (laid out relation-major). An action's
    score is the sum of its two entries. Window outputs are cached keyed on
    the identity and version of every slot, so after an attachment only
    windows overlapping the changed item are recomputed; a cache never
    outlives its tape.
    """

    def __init__(self, tape: Tape, model, cache: bool = True):
        self.tape = tape
        self.model = model
        self.use_cache = cache
        self._cache = {}

    def _window(self, pending, position):
        key = []
        slots = []
        for p in range(position - WINDOW_BEFORE, position + WINDOW_AFTER + 1):
            idx = p - 1
            if idx < 0:
                key.append("L")
                slots.append(self.model.pad_left)
            elif idx >= len(pending):
                key.append("R")
                slots.append(self.model.pad_right)
            else:
                item = pending[idx]
                key.append((item.uid, item.version))
                slots.append(item.enc)
        return tuple(key), slots

    def outputs(self, pending, position):
        """(direction-scorer output, relation-scorer output) for one point."""
        key, slots = self._window(pending, position)
        hit = self._cache.get(key) if self.use_cache else None
        if hit is not None:
            return hit
        x = self.tape.concat(*slots)
        out = (self.model.mlp_u.apply(self.tape, x), self.model.mlp_r.apply(self.tape, x))
        if self.use_cache:
            self._cache[key] = out
        return out

    def scores(self, pending) -> list:
        """Scored actions in canonical order (position, direction, relation)."""
        n_rel = self.model.n_relations
        actions = []
        for i in range(1, len(pending)):
            u_out, r_out = self.outputs(pending, i)
            u = u_out.value
            r = r_out.value
            for d in (LEFT, RIGHT):
                base = float(u[d, 0])
                for rel in range(n_rel):
                    actions.append(Action(i, d, rel, base + float(r[rel * 2 + d, 0])))
        return actions

    def score_tensor(self, pending, action: Action):
        """The scalar score of one action as a graph node, for loss terms."""
        u_out, r_out = self.outputs(pending, action.position)
        return self.tape.add(
            self.tape.pick_row(u_out, action.direction),
            self.tape.pick_row(r_out, action.relation * 2 + action.direction),
        )


def best_action(actions) -> Action:
    """Argmax with deterministic ties: lowest position, LEFT first, lowest relation."""
    return max(actions, key=lambda a: a.score)  # max keeps the first of equal scores


def head_and_dep(pending, action: Action):
    """The (head, dependent) pending items of an action's attachment."""
    left, right = pending[action.position - 1], pending[action.position]
    return (right, left) if action.direction == LEFT else (left, right)


def apply_action(tape, model, pending, action: Action, arcs: list) -> None:
    """Attach, record the arc, feed the child into the receiver, re-encode."""
    idx = action.position - 1
    if not 0 <= idx < len(pending) - 1:
        raise ValueError(f"action position {action.position} invalid for {len(pending)} pending items")
    head, dep = head_and_dep(pending, action)
    arcs.append(Arc(head.head_index, dep.head_index, model.rel_names[action.relation]))
    child = tape.concat(dep.enc, tape.pick_row(model.rel_emb, action.relation))
    if action.direction == LEFT:
        head.left_state = model.tree_left.step(tape, *head.left_state, child)
        head.left_children.append(dep.head_index)
    else:
        head.right_state = model.tree_right.step(tape, *head.right_state, child)
        head.right_children.append(dep.head_index)
    head.last_rel = action.relation
    head.version += 1
    head.enc = encode_node(tape, model, head)
    pending.remove(dep)


def parse(sentence: Sentence, model, scorer=None, trace=None) -> list:
    """Greedy parse: apply the best-scoring action until one item remains.

    Returns n arcs including the root arc. ``scorer`` may override the neural
    scorer (it must provide ``scores(pending)``); ``trace`` is an optional
    callable receiving one formatted line per step.
    """
    tape = Tape()
    arcs = []
    if len(sentence) == 0:
        return arcs
    if len(sentence) == 1:
        arcs.append(Arc(0, 1, model.vocab.root_label))
        return arcs
    vectors = encode_sentence(tape, model, sentence)
    pending = init_pending(tape, model, vectors, sentence)
    if scorer is None:
        scorer = ActionScorer(tape, model)
    step = 0
    while len(pending) > 1:
        step += 1
        choice = best_action(scorer.scores(pending))
        if trace is not None:
            trace(format_trace(step, choice, pending, model.rel_names))
        apply_action(tape, model, pending, choice, arcs)
    arcs.append(Arc(0, pending[0].head_index, model.vocab.root_label))
    return arcs


def format_trace(step: int, action: Action, pending, rel_names) -> str:
    head, dep = head_and_dep(pending, action)
    return "\t".join(
        (
            str(step),
            str(action.position),
            DIRECTIONS[action.direction],
            rel_names[action.relation],
            head.form,
            dep.form,
            f"{action.score:.4f}",
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
