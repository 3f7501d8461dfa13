"""In-memory spans and counters recorded around efdp's public functions.

Tracing never edits efdp: ``install`` swaps each listed function or method for
a wrapper that records a span (name, start, end, parent span, sentence id)
and puts the original back on ``restore``. Spans are kept in flat arrays
while the run goes on and written out once at the end. A layer's self time
is the duration of its spans minus the time their direct children cover;
calls nest strictly in one thread, so that is the sum of the children's
durations.
"""

import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

from efdp import autodiff, easyfirst, layers, model, oracle, represent, treebank

# span name -> the public functions it wraps, as (owner, attribute)
SPANS = {
    "treebank.read": [(treebank, "parse_conll")],
    "treebank.write": [(treebank, "write_conll")],
    "model.load": [(model.ParserModel, "load")],
    "represent.char": [(represent, "char_compose")],
    "represent.word": [(represent, "word_vector")],
    "represent.sentence": [(represent, "encode_sentence")],
    "easyfirst.parse": [(easyfirst, "parse")],
    "easyfirst.init": [(easyfirst, "init_pending")],
    "easyfirst.attach": [(easyfirst, "apply_action")],
    "easyfirst.score": [(easyfirst.ActionScorer, "scores")],
    "layers.mlp": [(layers.Mlp, "apply")],
    "oracle.train": [(oracle.Trainer, "train_sentence"), (oracle.Trainer, "flush")],
    "oracle.valid": [(oracle, "is_valid")],
    "oracle.hinge": [(oracle, "hinge_margin"), (oracle, "hinge_loss")],
    "autodiff.backward": [(autodiff.Tape, "backward")],
    "autodiff.adam": [(autodiff.ParameterStore, "adam_step")],
    "autodiff.finite": [(autodiff, "_check_finite")],
}
# private names: a change may inline or rename them, and the span then has 0 calls
OPTIONAL = {(autodiff, "_check_finite")}
# spans around a call made once per tape op: traced beside the others they
# add ten times the overhead of all the rest, so they get a cycle of their own
OWN_CYCLE = ("autodiff.finite",)
MAIN = tuple(name for name in SPANS if name not in OWN_CYCLE)
# spans the benchmark itself calls; time outside them is unattributed
TOP_LEVEL = ("treebank.read", "treebank.write", "easyfirst.parse", "oracle.train")
TAPE_OPS = ("matmul", "add", "sub", "pointwise_mul", "tanh", "logistic", "concat",
            "pick_row", "sum_all", "scale")
EFDP_MODULES = (autodiff, easyfirst, layers, model, oracle, represent, treebank)

COUNTERS = {
    "easyfirst.actions": "count",
    "easyfirst.window_hit_ratio": "ratio",
    "layers.lstm_steps": "count",
    "autodiff.ops": "count",
    "autodiff.peak_tape_len": "count",
    "oracle.margin_errors": "count",
    "oracle.updates": "count",
    "model.params": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPANS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(COUNTERS)
    return units


def self_times(name_ids, start, end, parent, n_names):
    """Per-name (self seconds, calls) from flat span arrays; parent -1 is top."""
    name_ids = np.asarray(name_ids, dtype=np.int64)
    duration = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    child_time = np.zeros(len(duration))
    nested = parent >= 0
    np.add.at(child_time, parent[nested], duration[nested])
    own = duration - child_time
    return (np.bincount(name_ids, weights=own, minlength=n_names),
            np.bincount(name_ids, minlength=n_names))


class Tracer:
    """Span and counter recorder for one traced phase of a run.

    It wraps the functions of the spans named in ``traced`` and counts
    actions, window lookups, LSTM steps and tape ops.
    """

    def __init__(self, traced=MAIN):
        self.names = list(SPANS)
        self.traced = traced
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.sentence_of = array("q")
        self.sentence = -1  # id of the sentence being processed; -1 outside one
        self.intervals = []  # timed (start, end) pairs of the traced phase
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # ---- recording ----

    def _span(self, name: str, fn, before=None, after=None):
        nid = self.names.index(name)
        stack, starts, ends = self._stack, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(starts)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.sentence_of.append(self.sentence)
            ends.append(0.0)
            stack.append(sid)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        """Replace owner.attr by make(original); module functions are replaced
        under every name an efdp module imported them by."""
        raw = inspect.getattr_static(owner, attr)
        if inspect.ismodule(owner):
            wrapped = make(raw)
            for mod in EFDP_MODULES:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._undo.append((mod, name, value))
                        setattr(mod, name, wrapped)
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        hooks = {
            "scores": dict(after=self._note_actions),
            "apply": dict(after=self._note_mlp_run),
            "hinge_loss": dict(after=self._note_margin_error),
            "backward": dict(before=self._note_tape),
        }
        for name in self.traced:
            for owner, attr in SPANS[name]:
                if (owner, attr) in OPTIONAL and not hasattr(owner, attr):
                    continue
                hook = hooks.get(attr, {})
                self._patch(owner, attr, lambda fn, name=name, hook=hook: self._span(name, fn, **hook))
        self._patch(easyfirst.ActionScorer, "outputs", self._window_lookup)
        self._patch(layers.LstmCell, "step", lambda fn: self._counted("layers.lstm_steps", fn))
        for op in TAPE_OPS:
            self._patch(autodiff.Tape, op, lambda fn: self._counted("autodiff.ops", fn))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _note_actions(self, actions) -> None:
        self.counts["easyfirst.actions"] += len(actions)

    def _note_mlp_run(self, _) -> None:
        self.counts["mlp_runs"] += 1

    def _note_margin_error(self, term) -> None:
        # hinge_loss returns a loss term exactly when the margin is violated
        if term is not None:
            self.counts["oracle.margin_errors"] += 1

    def _note_tape(self, args) -> None:
        self.counts["autodiff.peak_tape_len"] = max(self.counts["autodiff.peak_tape_len"], len(args[0]))

    def _window_lookup(self, fn):
        """Count scorer window lookups and those that ran no MLP."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            runs = counts["mlp_runs"]
            result = fn(*args, **kwargs)
            counts["window_lookups"] += 1
            if counts["mlp_runs"] == runs:
                counts["window_hits"] += 1
            return result

        return wrapper

    def timed(self, t0: float, t1: float) -> None:
        self.intervals.append((t0, t1))

    # ---- analysis ----

    def layer_times(self):
        return self_times(self.name_id, self.start, self.end, self.parent, len(self.names))

    def unattributed_s(self) -> float:
        """Timed wall time not covered by any top-level span."""
        start = np.asarray(self.start)
        duration = np.asarray(self.end) - start
        top = np.isin(np.asarray(self.name_id), [self.names.index(n) for n in TOP_LEVEL])
        top &= np.asarray(self.parent) < 0
        covered = 0.0
        for t0, t1 in self.intervals:
            inside = top & (start >= t0) & (start <= t1)
            covered += float(duration[inside].sum())
        return sum(t1 - t0 for t0, t1 in self.intervals) - covered

    def span_metrics(self) -> dict:
        """``<span>.self_s`` and ``<span>.calls`` of each traced span."""
        own, calls = self.layer_times()
        values = {}
        for name in self.traced:
            i = self.names.index(name)
            values[f"{name}.self_s"] = float(own[i])
            values[f"{name}.calls"] = int(calls[i])
        return values

    def metrics(self, updates: int, params: int, overhead_frac: float) -> dict:
        """The span metrics and every counter as name -> value."""
        values = self.span_metrics()
        lookups = self.counts["window_lookups"]
        values.update({
            "easyfirst.actions": self.counts["easyfirst.actions"],
            "easyfirst.window_hit_ratio": self.counts["window_hits"] / lookups if lookups else 0.0,
            "layers.lstm_steps": self.counts["layers.lstm_steps"],
            "autodiff.ops": self.counts["autodiff.ops"],
            "autodiff.peak_tape_len": self.counts["autodiff.peak_tape_len"],
            "oracle.margin_errors": self.counts["oracle.margin_errors"],
            "oracle.updates": updates,
            "model.params": params,
            "trace.overhead_frac": overhead_frac,
            "trace.unattributed_s": self.unattributed_s(),
        })
        return values

    def dump(self, path: str) -> None:
        """Write every span (name id, start, end, parent, sentence) and the names to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent),
            sentence=np.asarray(self.sentence_of),
        )
