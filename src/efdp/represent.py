"""Word representations: vocabularies, pretrained vectors, and encoders.

A word's pre-context vector concatenates its trained form embedding, POS
embedding, optional character BiLSTM composition, and optional frozen
pretrained vector, then maps through a tanh linear layer. A stacked sentence
BiLSTM turns those into contextual vectors.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import DataError, parse_file

UNK_ID = 0
PAD_ID = 1
_RESERVED = ("<unk>", "<pad>")


@dataclass
class Vocab:
    words: dict
    pos: dict
    chars: dict
    rels: dict  # label -> id in [0, R); no reserved ids
    word_freq: dict = field(default_factory=dict)
    root_label: str = "root"

    @property
    def n_relations(self) -> int:
        return len(self.rels)

    @property
    def rel_names(self) -> list:
        names = [None] * len(self.rels)
        for label, i in self.rels.items():
            names[i] = label
        return names

    def word_id(self, form: str) -> int:
        return self.words.get(form, UNK_ID)

    def pos_id(self, tag: str) -> int:
        return self.pos.get(tag, UNK_ID)

    def char_ids(self, form: str) -> list:
        return [self.chars.get(ch, UNK_ID) for ch in form]

    def to_meta(self) -> dict:
        ordered = lambda mapping: [k for k, _ in sorted(mapping.items(), key=lambda kv: kv[1])]
        return {
            "words": ordered(self.words),
            "pos": ordered(self.pos),
            "chars": ordered(self.chars),
            "rels": ordered(self.rels),
            "root_label": self.root_label,
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "Vocab":
        """Raises ValueError unless each list holds distinct strings, ``rels`` is
        not empty and ``root_label`` is a string."""
        if not meta["rels"]:
            raise ValueError("vocabulary lists no relation")
        if not isinstance(meta["root_label"], str):
            raise ValueError("vocabulary root_label is not a string")
        for key in ("words", "pos", "chars", "rels"):
            names = meta[key]
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ValueError(f"vocabulary {key!r} is not a list of strings")
            if len(set(names)) != len(names):
                raise ValueError(f"vocabulary {key!r} lists a name twice")
        as_map = lambda names: {name: i for i, name in enumerate(names)}
        return cls(
            words=as_map(meta["words"]),
            pos=as_map(meta["pos"]),
            chars=as_map(meta["chars"]),
            rels=as_map(meta["rels"]),
            root_label=meta["root_label"],
        )


def build_vocab(train) -> Vocab:
    """Index words, tags, characters, and relations seen in training data.

    Ids follow first-occurrence order, so the same corpus always yields the same vocab.
    """
    if not train:
        raise DataError("cannot build a vocabulary from an empty corpus")
    freq = Counter(t.form for sentence in train for t in sentence)
    words = {_RESERVED[0]: UNK_ID, _RESERVED[1]: PAD_ID}
    pos = {_RESERVED[0]: UNK_ID, _RESERVED[1]: PAD_ID}
    chars = {_RESERVED[0]: UNK_ID, _RESERVED[1]: PAD_ID}
    rels = {}
    root_counts = Counter()
    for sentence in train:
        for t in sentence:
            if t.form not in words:
                words[t.form] = len(words)
            if t.pos not in pos:
                pos[t.pos] = len(pos)
            for ch in t.form:
                if ch not in chars:
                    chars[ch] = len(chars)
            if t.deprel not in rels:
                rels[t.deprel] = len(rels)
            if t.head == 0:
                root_counts[t.deprel] += 1
    root_label = root_counts.most_common(1)[0][0] if root_counts else "root"
    return Vocab(words, pos, chars, rels, word_freq=dict(freq), root_label=root_label)


class PretrainedTable:
    """Frozen word vectors from a text file; absent words get the unknown vector."""

    def __init__(self, vectors: dict, dim: int):
        self.vectors = vectors
        self.dim = dim
        if "<unk>" in vectors:
            self.unk = vectors["<unk>"]
        else:
            self.unk = np.mean(list(vectors.values()), axis=0)

    def lookup(self, form: str) -> np.ndarray:
        hit = self.vectors.get(form)
        if hit is None:
            hit = self.vectors.get(form.lower())
        return hit if hit is not None else self.unk

    def __contains__(self, form: str) -> bool:
        return form in self.vectors or form.lower() in self.vectors

    def coverage(self, forms) -> float:
        """Fraction of distinct forms present in the table."""
        forms = set(forms)
        if not forms:
            return 0.0
        return sum(1 for f in forms if f in self) / len(forms)


def parse_pretrained(text: str) -> PretrainedTable:
    """Parse `word v1 ... vd` lines; a leading `count dim` header is allowed."""
    vectors = {}
    dim = None
    lines = text.split("\n")
    start = 0
    first = lines[0].split() if lines and lines[0].strip() else []
    if len(first) == 2 and all(p.lstrip("-").isdigit() for p in first):
        start = 1  # word2vec-style header
    for lineno in range(start, len(lines)):
        line = lines[lineno].rstrip()
        if not line:
            continue
        parts = line.split(" ")
        word = parts[0]
        try:
            vec = np.array([float(p) for p in parts[1:] if p], dtype=np.float64)
        except ValueError:
            raise DataError(f"line {lineno + 1}: non-numeric embedding value") from None
        if not np.isfinite(vec).all():
            raise DataError(f"line {lineno + 1}: non-finite embedding value")
        if dim is None:
            dim = vec.size
            if dim == 0:
                raise DataError(f"line {lineno + 1}: no values after the word")
        elif vec.size != dim:
            raise DataError(
                f"line {lineno + 1}: dimension {vec.size} != expected {dim}"
            )
        vectors[word] = vec
    if not vectors:
        raise DataError("empty pretrained embedding file")
    return PretrainedTable(vectors, dim)


def load_pretrained(path: str) -> PretrainedTable:
    return parse_file(path, parse_pretrained, DataError)


def char_compose(tape, model, forms) -> Tensor:
    """Compose one vector per word form with the char BiLSTM, as (2*char_hidden, m).

    Column j is concat(final forward state, final backward state) of form j.
    All forms run side by side, each as a run of consecutive character columns;
    unseen characters fall back to the unknown character embedding.
    """
    x = tape.pick_row(model.char_emb, [cid for form in forms for cid in model.vocab.char_ids(form)])
    _, f_final, b_final = model.char_net.run(tape, x, [len(form) for form in forms])
    return tape.concat(f_final, b_final)


def word_vector(tape, model, sentence, rng=None) -> Tensor:
    """Pre-context vectors of a sentence's tokens, as (vprime_dim, n).

    Active blocks are stacked in fixed order (word, POS, characters,
    pretrained) and mapped to the configured dimension with one tanh layer.
    In training, which passes ``rng``, rare words may be dropped to the
    unknown id so the unknown embedding gets trained; the draws go token by
    token in sentence order.
    """
    cfg, vocab = model.config, model.vocab
    wids = [vocab.word_id(t.form) for t in sentence]
    if cfg.word_dropout and rng is not None:
        for k, token in enumerate(sentence):
            freq = vocab.word_freq.get(token.form, 0)
            if wids[k] != UNK_ID and rng.random() < cfg.dropout_alpha / (cfg.dropout_alpha + freq):
                wids[k] = UNK_ID
    parts = [
        tape.pick_row(model.word_emb, wids),
        tape.pick_row(model.pos_emb, [vocab.pos_id(t.pos) for t in sentence]),
    ]
    if cfg.use_char:
        parts.append(char_compose(tape, model, [t.form for t in sentence]))
    if cfg.use_pretrained:
        parts.append(Tensor(np.column_stack([model.pretrained.lookup(t.form) for t in sentence])))
    x = tape.concat(*parts)
    return tape.tanh(tape.add(tape.matmul(model.w_v, x), model.b_v))


def encode_sentence(tape, model, sentence, rng=None) -> Tensor:
    """Contextual vectors of every token as (2*sent_hidden, n).

    Column i stacks the forward state through token i over the backward
    state from the last token back to token i.

    ``rng`` is given only in training, where it draws the word dropout.
    """
    contextual, _, _ = model.sent_net.run(tape, word_vector(tape, model, sentence, rng), [len(sentence)])
    return contextual
