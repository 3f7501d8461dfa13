"""Seeded synthetic treebanks for the benchmark workloads.

Trees come from ``efdp.synthetic.random_projective_heads``. Sentence
lengths are stratified: every block of ``n_max - n_min + 1`` consecutive
sentences holds each length once, in a random order, so corpora of whole
blocks from different seeds hold the same lengths and, since parse cost
grows with length, about the same amount of work. Word forms are
random lowercase strings drawn from a fixed lexicon with Zipf frequencies,
each form carrying one POS tag, so a corpus looks like real text to the
vocabulary, the word embeddings and the character network: a few frequent
short-to-medium words and a long tail. Every random choice flows from the
seed passed in, through one ``numpy`` generator per named stream.
"""

from dataclasses import dataclass

import numpy as np

from efdp.synthetic import random_projective_heads
from efdp.treebank import Sentence, Token

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
ROOT_LABEL = "root"
N_TYPES = 2000  # lexicon size
N_POS = 17
MEAN_FORM_LEN = 6.0  # letters
STREAMS = {"lexicon": 0, "vocab": 1, "input": 2, "heldout": 3, "warmup": 4}


@dataclass(frozen=True)
class CorpusShape:
    n_min: int  # sentence length range, tokens
    n_max: int
    n_relations: int  # distinct labels, the root label included


def stream_rng(seed: int, stream: str):
    return np.random.default_rng([seed, STREAMS[stream]])


def make_lexicon(seed: int):
    """(forms, POS tags, Zipf probabilities) for ``N_TYPES`` distinct words."""
    rng = stream_rng(seed, "lexicon")
    forms = []
    seen = set()
    while len(forms) < N_TYPES:
        length = 1 + int(rng.poisson(MEAN_FORM_LEN - 1.0))
        form = "".join(ALPHABET[int(i)] for i in rng.integers(0, len(ALPHABET), size=length))
        if form not in seen:
            seen.add(form)
            forms.append(form)
    tags = [f"P{int(t):02d}" for t in rng.integers(0, N_POS, size=N_TYPES)]
    weights = 1.0 / np.arange(1, N_TYPES + 1)
    return forms, tags, weights / weights.sum()


def make_corpus(seed: int, shape: CorpusShape, count: int, stream: str = "input") -> list:
    """``count`` projective gold-annotated sentences; same arguments, same corpus."""
    forms, tags, probs = make_lexicon(seed)
    labels = [f"rel{i:02d}" for i in range(shape.n_relations - 1)]
    rng = stream_rng(seed, stream)
    lengths = []
    while len(lengths) < count:
        lengths.extend(shape.n_min + rng.permutation(shape.n_max - shape.n_min + 1))
    sentences = []
    for n in lengths[:count]:
        n = int(n)
        heads = random_projective_heads(rng, n)
        words = rng.choice(N_TYPES, size=n, p=probs)
        rels = rng.integers(0, len(labels), size=n)
        tokens = tuple(
            Token(i, forms[w], tags[w], h, ROOT_LABEL if h == 0 else labels[r])
            for i, (w, h, r) in enumerate(zip(words, heads, rels), start=1)
        )
        sentences.append(Sentence(tokens))
    return sentences
