"""Command-line entry point: train, parse, eval, and trace subcommands.

Exit codes: 0 success, 1 usage or configuration error, a path that cannot
be read or written, or a forward pass that overflowed (as a too-large ``lr``
makes it), 2 data error, 130 interrupted (Ctrl-C). Each error is one
``error:`` line on stderr; an error in a file's contents names the file.
"""

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from . import evaluate, treebank
from .config import Config, load_config
from .easyfirst import arcs_to_rows, parse
from .errors import ConfigError, DataError, EfdpError
from .model import ParserModel
from .oracle import train
from .represent import build_vocab, load_pretrained

log = logging.getLogger("efdp")


class ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ``ConfigError``s (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_argparser():
    top = ArgumentParser(prog="efdp", description="easy-first dependency parser")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--model", help="model file path")
        p.add_argument("--pretrained", help="pretrained embedding text file")

    p_train = sub.add_parser("train", help="train a parser on a CoNLL-X treebank")
    common(p_train)
    p_train.set_defaults(run=lambda args: cmd_train(_resolve_config(args)))
    p_train.add_argument("--train", help="training treebank")
    p_train.add_argument("--test", help="held-out treebank scored each epoch")
    p_train.add_argument("--test-size", type=int, dest="test_size",
                         help="hold out the last N training sentences instead")
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--use-char", action="store_true", default=None)
    p_train.add_argument("--use-pretrained", action="store_true", default=None)
    p_train.add_argument("--word-dropout", action="store_true", default=None)

    p_parse = sub.add_parser("parse", help="parse a CoNLL-X file with a trained model")
    common(p_parse)
    p_parse.set_defaults(run=lambda args: cmd_parse(_resolve_config(args), args.input, args.output))
    p_parse.add_argument("--input", required=True)
    p_parse.add_argument("--output", required=True, help="output path, or - for stdout")

    p_eval = sub.add_parser("eval", help="score predictions against gold")
    p_eval.set_defaults(
        run=lambda args: cmd_eval(args.gold, args.predicted, args.exclude_punct, args.punct_tags))
    p_eval.add_argument("gold")
    p_eval.add_argument("predicted")
    p_eval.add_argument("--exclude-punct", action="store_true")
    p_eval.add_argument("--punct-tags", default=evaluate.PUNCT_TAGS, help="comma-separated POS tags")

    p_trace = sub.add_parser("trace", help="print the action trace for one sentence")
    common(p_trace)
    p_trace.set_defaults(run=lambda args: cmd_trace(_resolve_config(args), args.input, args.index))
    p_trace.add_argument("--input", required=True)
    p_trace.add_argument("--index", type=int, default=0, help="sentence index in the file")
    return top


def _resolve_config(args) -> Config:
    """The config file's settings, overridden by every given flag whose dest is a ``Config`` field."""
    cfg = load_config(args.config) if args.config else Config()
    for field in dataclasses.fields(cfg):
        value = getattr(args, field.name, None)
        if value is not None:  # flags not given parse as None, store_true ones included
            setattr(cfg, field.name, value)
    cfg.validate()
    return cfg


def _require(cfg, name):
    value = getattr(cfg, name)
    if not value:
        raise ConfigError(f"missing required setting: {name}")
    return value


def cmd_train(cfg: Config) -> int:
    model_path = _require(cfg, "model")  # checked before training, which it would otherwise outlast
    if os.path.isdir(model_path) or not os.path.isdir(os.path.dirname(model_path) or "."):
        raise ConfigError(f"model path {model_path} is a directory or in one that does not exist")
    corpus = treebank.read_conll(_require(cfg, "train"))
    dev = None
    if cfg.test:
        dev = treebank.read_conll(cfg.test)
    elif cfg.test_size:
        if cfg.test_size >= len(corpus):
            raise ConfigError(f"test size {cfg.test_size} leaves none of {len(corpus)} sentences to train on")
        corpus, dev = corpus[:-cfg.test_size], corpus[-cfg.test_size:]
    table = load_pretrained(_require(cfg, "pretrained")) if cfg.use_pretrained else None
    projective, dropped = treebank.filter_projective(corpus)
    if dropped:
        log.info("excluded %d non-projective sentences from training", dropped)
    if not projective:
        raise DataError("no projective sentences left to train on")
    vocab = build_vocab(projective)
    if table is not None:
        forms = {t.form for sentence in projective for t in sentence}
        log.info("pretrained vectors cover %.2f%% of %d training word forms",
                 100.0 * table.coverage(forms), len(forms))
    try:
        model = ParserModel(cfg, vocab, pretrained=table)
    except (MemoryError, ValueError) as e:  # a dimension too large to allocate
        raise ConfigError(f"cannot build the model: {e}") from None
    train(projective, model, cfg.epochs, dev=dev)
    model.save(model_path)
    log.info("model written to %s", model_path)
    return 0


def cmd_parse(cfg: Config, input_path: str, output_path: str) -> int:
    model = ParserModel.load(_require(cfg, "model"), cfg.pretrained)
    sentences = treebank.read_conll(input_path, validate=False)
    rows = [arcs_to_rows(parse(s, model), len(s)) for s in sentences]
    if output_path == "-":
        sys.stdout.write(treebank.write_conll(sentences, rows))
    else:
        treebank.write_conll_file(output_path, sentences, rows)
    return 0


def score_file(gold, predicted_path: str, exclude_punct: bool, punct_tags: str) -> evaluate.EvalResult:
    """Scores the treebank at ``predicted_path`` against the ``gold`` sentences."""
    predicted = treebank.read_conll(predicted_path)
    for si, (g, p) in enumerate(zip(gold, predicted)):
        if [t.form for t in g] != [t.form for t in p]:
            raise DataError(f"sentence {si + 1}: predicted word forms differ from gold")
    rows = [[(t.head, t.deprel) for t in sentence] for sentence in predicted]
    return evaluate.score(gold, rows, exclude_punct=exclude_punct, punct_tags=punct_tags)


def cmd_eval(gold_path: str, predicted_path: str, exclude_punct: bool, punct_tags: str) -> int:
    result = score_file(treebank.read_conll(gold_path), predicted_path, exclude_punct, punct_tags)
    sys.stdout.write(f"UAS {result.uas:.2f} LAS {result.las:.2f}\n")
    return 0


def cmd_trace(cfg: Config, input_path: str, index: int, out=None, scorer=None) -> int:
    out = out or sys.stdout
    model = ParserModel.load(_require(cfg, "model"), cfg.pretrained)
    sentences = treebank.read_conll(input_path, validate=False)
    if not 0 <= index < len(sentences):
        raise DataError(f"sentence index {index} out of range ({len(sentences)} sentences)")
    sentence = sentences[index]
    arcs = parse(sentence, model, scorer=scorer, trace=lambda line: out.write(line + "\n"))
    out.write(treebank.write_conll([sentence], [arcs_to_rows(arcs, len(sentence))]))
    return 0


def report(error: BaseException) -> int:
    """Prints ``error`` as one ``error:`` line and returns its exit code."""
    if isinstance(error, KeyboardInterrupt):
        print("error: interrupted", file=sys.stderr)
        return 130
    print(f"error: {error}", file=sys.stderr)
    return 2 if isinstance(error, DataError) else 1


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = _build_argparser()
    # OSError: a path that cannot be read or written; FloatingPointError: a forward pass that overflowed
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):  # a finite check reports an overflow
            return args.run(args)
    except (EfdpError, OSError, FloatingPointError, KeyboardInterrupt) as e:
        return report(e)


if __name__ == "__main__":
    sys.exit(main())
