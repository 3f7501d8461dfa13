"""The benchmark's workloads: what each one runs, how it is timed and checked.

Every workload drives the calls the ``efdp`` command line makes. Parsing
goes ``ParserModel.load`` -> ``treebank.parse_conll`` -> ``easyfirst.parse``
-> ``easyfirst.arcs_to_rows`` -> ``treebank.write_conll``, as ``efdp parse``
does; training goes ``build_vocab`` + ``ParserModel(...)`` ->
``oracle.Trainer.train_sentence`` + ``flush``, as ``efdp train`` does. Calls
go through module attributes so that the tracer's wrappers see them.

A run repeats one *cycle* of identical work until ``seconds`` have passed,
and at least ``MIN_CYCLES`` times. A parse cycle reads, parses and writes
the same input sentences; a train cycle trains a freshly built model on the
same sentences, which gives bit-identical work, then parses held-out
sentences with it. Each timed part (a chunk, a training sentence, a flush)
and each sentence's parse latency counts at its fastest cycle. Other load on
this kind of shared machine only ever adds time, and it comes and goes over
seconds, so the fastest of repeats spread over the run is the steadiest
measure of the code; pooling every cycle let a busy stretch move the p90 of
one workload by a third between runs.

An untraced run gives the end-to-end metrics. A traced run gives the
per-layer metrics instead: one untraced cycle, then one traced cycle of the
same work, so its counts repeat exactly for a seed and the two timings give
the tracing overhead, then one more cycle that traces only the spans of
``spans.OWN_CYCLE``.

A train run also checks that training learns (``learned_scores``), outside
the timed and traced work; a model that misses ``LAS_FLOOR`` counts as one
failure.
"""

import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from efdp import easyfirst, oracle, represent, synthetic, treebank
from efdp.config import Config
from efdp.model import ParserModel

from perfbench.corpus import CorpusShape, make_corpus
from perfbench.spans import OWN_CYCLE, Tracer

SETUP_BATCH = 5  # set-ups timed before the first cycle and after each one
MIN_CYCLES = 2
WARMUP_SENTENCES = 3
CHUNK = 10  # sentences per CoNLL text read and written in one go
# sentences parsed per cycle: at least ten latency samples lie beyond p90, and
# the count is a whole number of length blocks of both corpus shapes
LATENCY_SENTENCES = 112
VOCAB_SENTENCES = 1000  # the corpus a model's vocabulary is built from
# the training check: one pass over LEARN_SENTENCES grammar sentences must
# reach LAS_FLOOR per cent on LEARN_HELDOUT more
LEARN_SENTENCES = 200
LEARN_HELDOUT = 40
LEARN_ERROR_BATCH = 10
LAS_FLOOR = 80.0

END_TO_END = {
    "tok_s": "tok/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

LONG = CorpusShape(n_min=15, n_max=30, n_relations=30)
SHORT = CorpusShape(n_min=5, n_max=12, n_relations=8)


@dataclass(frozen=True)
class Workload:
    name: str
    train: bool
    use_char: bool
    shape: CorpusShape
    train_sentences: int = 0  # train only: training sentences per cycle


WORKLOADS = {
    w.name: w
    for w in (
        Workload("parse-long", train=False, use_char=False, shape=LONG),
        Workload("parse-char", train=False, use_char=True, shape=SHORT),
        Workload("train", train=True, use_char=False, shape=LONG, train_sentences=32),
    )
}


@dataclass
class Tally:
    """One cycle: its timed parts in order, per-sentence parse latencies
    (None where the sentence failed), work done, failures, and the process's
    peak RSS when the cycle ended."""

    tokens: int = 0
    parts: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0

    @property
    def seconds(self) -> float:
        return sum(self.parts)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if self.failed <= 3:
            print(f"check failed: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


@dataclass
class Run:
    """What one run measured. A traced run also holds its untraced twin cycle."""

    cycles: list  # Tally per cycle
    setup: list  # seconds of each set-up
    learned: tuple = None  # train only: (UAS, LAS) from ``learned_scores``
    updates: int = 0  # train only, per cycle
    tracer: Tracer = None
    own_cycle: Tracer = None  # traces the spans of ``spans.OWN_CYCLE``
    plain: Tally = None
    params: int = 0  # parameter scalars of the traced model

    @property
    def attempted(self) -> int:
        """Sentences attempted, plus the training check on ``train``."""
        return sum(c.attempted for c in self.cycles) + (self.learned is not None)

    @property
    def failed(self) -> int:
        untrained = self.learned is not None and not self.learned[1] >= LAS_FLOOR
        return sum(c.failed for c in self.cycles) + untrained


# ---- parsing ----


def raw_chunks(sentences):
    """CoNLL texts of CHUNK sentences with HEAD and DEPREL blanked, paired with gold."""
    chunks = []
    for i in range(0, len(sentences), CHUNK):
        gold = sentences[i : i + CHUNK]
        text = treebank.write_conll(gold, [[("_", "_")] * len(s) for s in gold])
        chunks.append((text, gold))
    return chunks


def parse_chunk(model, text, gold, tally: Tally, tracer=None) -> list:
    """Read, parse and write one chunk as ``efdp parse`` does.

    Read + parse + write is one timed part, and each ``easyfirst.parse`` +
    ``arcs_to_rows`` is one latency sample. Each sentence must go through
    ``arcs_to_rows``; one that fails is counted, not raised. Returns the
    written sentences as (sentence id, CoNLL block, gold sentence) for
    ``check_output``.
    """
    first_id = tally.attempted
    t0 = time.perf_counter()
    try:
        sentences = treebank.parse_conll(text, validate=False)
    except Exception:
        tally.attempted += len(gold)
        tally.latencies.extend([None] * len(gold))
        tally.fail("input chunk did not read", len(gold))
        return []
    rows = []
    for k, sentence in enumerate(sentences):
        if tracer is not None:
            tracer.sentence = first_id + k
        started = time.perf_counter()
        try:
            rows.append(easyfirst.arcs_to_rows(easyfirst.parse(sentence, model), len(sentence)))
        except Exception:
            rows.append(None)
            tally.latencies.append(None)
            continue
        tally.latencies.append(time.perf_counter() - started)
    if tracer is not None:
        tracer.sentence = -1
    parsed = [k for k, r in enumerate(rows) if r is not None]
    out = treebank.write_conll([sentences[k] for k in parsed], [rows[k] for k in parsed])
    t1 = time.perf_counter()
    tally.parts.append(t1 - t0)
    if tracer is not None:
        tracer.timed(t0, t1)
    tally.tokens += sum(len(s) for s in sentences)
    tally.attempted += len(sentences)
    for k in range(len(sentences)):
        if rows[k] is None:
            tally.fail(f"sentence {first_id + k}: parse or arcs_to_rows raised")
    blocks = out.split("\n\n") if out else []
    if len(sentences) != len(gold) or len(blocks) != len(parsed):
        tally.fail("chunk output does not align with its input", len(parsed))
        return []
    return [(first_id + k, block, gold[k]) for k, block in zip(parsed, blocks)]


def check_output(tally: Tally, written) -> Tally:
    """Each written block must re-read with ``validate=True`` (one head per
    token, a tree) into the input's tokens; a block failing is counted.

    A traced run calls this after tracing ends, so the checks' own reads and
    tree validation stay out of the spans.
    """
    for sentence_id, block, gold in written:
        try:
            (back,) = treebank.parse_conll(block, validate=True)
            if back.forms != gold.forms:
                raise ValueError("written tokens differ from the input tokens")
        except Exception:
            tally.fail(f"sentence {sentence_id}: output is not a well-formed tree")
    return tally


def parse_cycle(model, chunks, tracer=None):
    """(tally, written sentences) of one pass over ``chunks``, output not yet checked."""
    tally = Tally()
    written = []
    for text, gold in chunks:
        written += parse_chunk(model, text, gold, tally, tracer)
    tally.peak_rss_mb = peak_rss_mb()
    return tally, written


def run_parse(w: Workload, seed: int, seconds: float, trace: bool, workdir: str) -> Run:
    path = os.path.join(workdir, "model.bin")
    vocab = represent.build_vocab(make_corpus(seed, w.shape, VOCAB_SENTENCES, "vocab"))
    ParserModel(Config(use_char=w.use_char, seed=seed), vocab).save(path)
    chunks = raw_chunks(make_corpus(seed, w.shape, LATENCY_SENTENCES))
    model = ParserModel.load(path)
    parse_cycle(model, raw_chunks(make_corpus(seed, w.shape, WARMUP_SENTENCES, "warmup")))
    if not trace:
        model = None
        cycles, setup = repeat(lambda: ParserModel.load(path),
                               lambda model: check_output(*parse_cycle(model, chunks)), seconds)
        return Run(cycles, setup)
    plain, _ = parse_cycle(model, chunks)
    with Tracer() as tracer:
        model = ParserModel.load(path)
        traced, written = parse_cycle(model, chunks, tracer)
    check_output(traced, written)
    with Tracer(OWN_CYCLE) as own_cycle:
        checked, written = parse_cycle(model, chunks)
    check_output(checked, written)
    return Run([traced, checked], [], tracer=tracer, own_cycle=own_cycle, plain=plain, params=n_params(model))


# ---- training ----


def train_cycle(model, sentences, heldout=(), tracer=None):
    """Train ``model`` on ``sentences`` then flush, one timed part each, then
    parse ``heldout`` with it. Every loss must be finite; each held-out parse
    is a latency sample and must go through ``arcs_to_rows``. Returns the
    tally and the number of updates."""
    tally = Tally()
    trainer = oracle.Trainer(model)
    for i, sentence in enumerate(sentences):
        if tracer is not None:
            tracer.sentence = i
        t0 = time.perf_counter()
        try:
            loss = trainer.train_sentence(sentence)
        except Exception:
            loss = math.nan
        t1 = time.perf_counter()
        tally.parts.append(t1 - t0)
        if tracer is not None:
            tracer.timed(t0, t1)
        tally.tokens += len(sentence)
        tally.attempted += 1
        if not math.isfinite(loss):
            tally.fail(f"sentence {i}: training loss {loss} is not finite")
    if tracer is not None:
        tracer.sentence = -1
    t0 = time.perf_counter()
    try:
        trainer.flush()
    except Exception:
        tally.fail("final flush raised")
    t1 = time.perf_counter()
    tally.parts.append(t1 - t0)
    if tracer is not None:
        tracer.timed(t0, t1)
    for sentence in heldout:
        tally.attempted += 1
        started = time.perf_counter()
        try:
            easyfirst.arcs_to_rows(easyfirst.parse(sentence, model), len(sentence))
        except Exception:
            tally.latencies.append(None)
            tally.fail("held-out sentence: parse or arcs_to_rows raised")
            continue
        tally.latencies.append(time.perf_counter() - started)
    tally.peak_rss_mb = peak_rss_mb()
    return tally, trainer.updates


def learned_scores(cfg: Config, seed: int) -> tuple:
    """(UAS, LAS) in per cent, on held-out sentences, of a model trained for
    one pass on a learnable corpus; (nan, nan) if training or parsing raised.

    The workload's random trees cannot be learned from a few sentences, so
    training is checked on ``efdp.synthetic.grammar_corpus``, where the POS
    pattern fixes the tree and its labels. The default ``error_batch`` of 50
    makes about a dozen updates in a pass, too few for some seeds, so the
    check updates every ``LEARN_ERROR_BATCH`` errors. Trained this way,
    models of seeds 1-20 all reached 100 % LAS; untrained models of seeds
    1-100 reached at most 45 %, and so do models whose updates do nothing.
    """
    corpus = synthetic.grammar_corpus(seed, LEARN_SENTENCES + LEARN_HELDOUT)
    sentences, heldout = corpus[:LEARN_SENTENCES], corpus[LEARN_SENTENCES:]
    try:
        model = ParserModel(cfg, represent.build_vocab(sentences))
        trainer = oracle.Trainer(model, error_batch=LEARN_ERROR_BATCH)
        for sentence in sentences:
            trainer.train_sentence(sentence)
        trainer.flush()
        heads = labels = total = 0
        for sentence in heldout:
            rows = easyfirst.arcs_to_rows(easyfirst.parse(sentence, model), len(sentence))
            for (head, rel), t in zip(rows, sentence):
                heads += head == t.head
                labels += head == t.head and rel == t.deprel
            total += len(sentence)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return math.nan, math.nan
    return 100.0 * heads / total, 100.0 * labels / total


def run_train(w: Workload, seed: int, seconds: float, trace: bool, workdir: str) -> Run:
    # the training sentences open a corpus that the vocabulary is built from
    sentences = make_corpus(seed, w.shape, w.train_sentences)
    corpus = sentences + make_corpus(seed, w.shape, VOCAB_SENTENCES - w.train_sentences, "vocab")
    cfg = Config(seed=seed)
    model = ParserModel(cfg, represent.build_vocab(corpus))
    vocab = model.vocab
    train_cycle(model, make_corpus(seed, w.shape, WARMUP_SENTENCES, "warmup"))
    model = None
    if not trace:
        heldout = make_corpus(seed, w.shape, LATENCY_SENTENCES, "heldout")
        # each cycle trains the fresh model of a set-up: the same initial
        # parameters, the same work
        cycles, setup = repeat(lambda: ParserModel(cfg, represent.build_vocab(corpus)),
                               lambda model: train_cycle(model, sentences, heldout), seconds)
        return Run([c[0] for c in cycles], setup, learned=learned_scores(cfg, seed), updates=cycles[-1][1])
    plain, _ = train_cycle(ParserModel(cfg, vocab), sentences)
    model = ParserModel(cfg, vocab)
    with Tracer() as tracer:
        traced, updates = train_cycle(model, sentences, tracer=tracer)
    with Tracer(OWN_CYCLE) as own_cycle:
        checked, _ = train_cycle(ParserModel(cfg, vocab), sentences)
    return Run([traced, checked], [], learned=learned_scores(cfg, seed), updates=updates, tracer=tracer,
               own_cycle=own_cycle, plain=plain, params=n_params(model))


# ---- results ----


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def n_params(model) -> int:
    return sum(p.value.size for _, p in model.store.items())


def repeat(set_up, cycle, seconds: float) -> tuple:
    """(results, set-up seconds) of ``cycle(model)`` run until ``seconds``
    have passed, at least MIN_CYCLES times, each on a model from ``set_up()``.

    ``set_up()`` is timed SETUP_BATCH times before the first cycle and after
    each. Spread over the run like this, the set-up samples do not all fall
    in one busy moment of the machine.
    """
    results, setup = [], []
    started = time.perf_counter()
    while True:
        for _ in range(SETUP_BATCH):
            model = None
            t0 = time.perf_counter()
            model = set_up()
            setup.append(time.perf_counter() - t0)
        if len(results) >= MIN_CYCLES and time.perf_counter() - started >= seconds:
            return results, setup
        results.append(cycle(model))


def fastest(per_cycle) -> list:
    """Element-wise minimum over cycles of aligned lists, skipping None."""
    best = []
    for values in zip(*per_cycle):
        done = [v for v in values if v is not None]
        if done:
            best.append(min(done))
    return best


def metrics(run: Run) -> dict:
    """The end-to-end metrics of an untraced run, the per-layer ones of a traced run."""
    if run.tracer is not None:
        values = run.tracer.metrics(
            updates=run.updates,
            params=run.params,
            overhead_frac=run.cycles[0].seconds / run.plain.seconds - 1.0,
        )
        values.update(run.own_cycle.span_metrics())
        return values
    ms = [1000.0 * s for s in fastest(c.latencies for c in run.cycles)]
    return {
        "tok_s": run.cycles[0].tokens / sum(fastest(c.parts for c in run.cycles)),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[-1],
        "setup_s": statistics.median(run.setup),
        # when the first cycle ended: one set-up batch and one pass of work,
        # not the heap the later set-ups and the training check fragment
        "peak_rss_mb": run.cycles[0].peak_rss_mb,
        "success_rate": 1.0 - run.failed / run.attempted,
    }


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> Run:
    w = WORKLOADS[name]
    return (run_train if w.train else run_parse)(w, seed, seconds, trace, workdir)
