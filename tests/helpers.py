"""Shared test utilities: finite-difference checks and tiny model builders."""

import numpy as np

from efdp.config import Config
from efdp.model import ParserModel
from efdp.represent import build_vocab
from efdp.synthetic import toy_corpus

TINY = dict(
    word_dim=5,
    pos_dim=3,
    vprime_dim=6,
    sent_hidden=4,
    sent_layers=1,
    char_dim=4,
    char_hidden=3,
    char_layers=1,
    tree_hidden=4,
    label_dim=3,
    mlp_hidden=5,
)


def tiny_model(seed=0, corpus_seed=11, count=6, **overrides):
    corpus = toy_corpus(seed=corpus_seed, count=count, n_min=3, n_max=6)
    vocab = build_vocab(corpus)
    params = dict(TINY)
    params.update(overrides)
    cfg = Config(seed=seed, **params)
    return ParserModel(cfg, vocab), corpus


def action_index(position, direction, relation, n_relations):
    """Index k of an action in the score array, written out by arithmetic:
    position-major from 1, LEFT (0) before RIGHT (1), then relation."""
    return (2 * (position - 1) + direction) * n_relations + relation


def grad_of(t):
    """A copy of t's gradient; a tensor that backward did not reach has none, which is a zero one."""
    return np.zeros_like(t.value) if t.grad is None else t.grad.copy()


def numeric_gradients(build_loss, params, eps=1e-4, coords=None):
    """Central finite differences of build_loss() w.r.t. each parameter entry, one array per parameter.

    ``build_loss`` must rebuild the graph from current parameter values and
    return the loss tensor. ``coords`` optionally restricts which flat indices
    of each parameter are probed.
    """
    grads = []
    for p in params:
        flat = p.value.reshape(-1)
        indices = range(flat.size) if coords is None else coords(flat.size)
        g = np.zeros(flat.size)
        for i in indices:
            saved = flat[i]
            flat[i] = saved + eps
            f_plus = build_loss().item()
            flat[i] = saved - eps
            f_minus = build_loss().item()
            flat[i] = saved
            g[i] = (f_plus - f_minus) / (2 * eps)
        grads.append(g.reshape(p.value.shape))
    return grads


def check_gradients(make_tape_and_loss, store, params=None, rtol=1e-4, atol=1e-6, coords=None):
    """Assert analytic gradients match central finite differences.

    ``make_tape_and_loss`` returns (tape, loss); it runs once for the
    analytic pass and repeatedly (loss only used) for the numeric one.
    ``params`` defaults to the store's trainable tensors; one that the loss
    does not reach has no gradient, which is a zero one.
    """
    params = store.trainable if params is None else params
    store.zero_grads()
    tape, loss = make_tape_and_loss()
    tape.backward(loss)
    analytic = [grad_of(p) for p in params]
    store.zero_grads()
    numeric = numeric_gradients(lambda: make_tape_and_loss()[1], params, coords=coords)
    worst = 0.0
    for k, (p, a, n) in enumerate(zip(params, analytic, numeric)):
        mask = np.ones_like(a, dtype=bool)
        if coords is not None:
            mask = np.zeros(a.size, dtype=bool)
            mask[list(coords(a.size))] = True
            mask = mask.reshape(a.shape)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), atol / rtol)
        err = (np.abs(a - n) / denom)[mask]
        if err.size:
            worst = max(worst, float(err.max()))
        assert (err <= rtol).all() or (np.abs(a - n)[mask] <= atol).all(), (
            f"parameter {k} {p!r}: max rel err {err.max():.2e}"
        )
    return worst
