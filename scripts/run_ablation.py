#!/usr/bin/env python3
"""Train the four feature configurations and report their attachment scores.

Rows: word+pos, +char, +pretrained, +char+pretrained. Columns: one UAS/LAS
pair per test condition (e.g. gold vs automatic POS tags). Emits the aligned
text table plus one JSON record per cell.

Example:
    python3 scripts/run_ablation.py --train train.conll --test gold:test.conll \
        --test auto:test_auto.conll --pretrained vectors.txt --outdir runs/
"""

import argparse
import dataclasses
import os
import sys

from efdp.config import Config, load_config
from efdp.easyfirst import arcs_to_rows, parse
from efdp.evaluate import ablation_report, format_records, score
from efdp.model import ParserModel
from efdp.oracle import train
from efdp.represent import build_vocab, load_pretrained
from efdp.treebank import filter_projective, read_conll

CONFIGS = (
    ("word+pos", dict()),
    ("+char", dict(use_char=True)),
    ("+pretrained", dict(use_pretrained=True)),
    ("+char+pretrained", dict(use_char=True, use_pretrained=True)),
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--train", required=True)
    ap.add_argument(
        "--test",
        action="append",
        required=True,
        help="condition:path, repeatable (e.g. gold:test.conll auto:test_auto.conll)",
    )
    ap.add_argument("--pretrained", help="embedding file; enables the pretrained rows")
    ap.add_argument("--config", help="base key=value config for dims/epochs/seed")
    ap.add_argument("--outdir", default=".")
    args = ap.parse_args()

    base = load_config(args.config) if args.config else Config()
    base.validate()
    train_sents, dropped = filter_projective(read_conll(args.train))
    if dropped:
        print(f"excluded {dropped} non-projective training sentences", file=sys.stderr)
    conditions = {}
    for entry in args.test:
        name, _, path = entry.partition(":")
        conditions[name or "test"] = read_conll(path or name)

    table = load_pretrained(args.pretrained) if args.pretrained else None
    results = {}
    os.makedirs(args.outdir, exist_ok=True)
    for label, flags in CONFIGS:
        if flags.get("use_pretrained") and table is None:
            continue
        cfg = dataclasses.replace(base, **flags)
        vocab = build_vocab(train_sents, cfg.min_word_freq)
        model = ParserModel(cfg, vocab, pretrained=table)
        train(train_sents, model, cfg.epochs)
        model.save(os.path.join(args.outdir, f"model_{label.strip('+').replace('+', '_')}.bin"))
        row = {}
        for condition, sentences in conditions.items():
            predicted = [arcs_to_rows(parse(s, model), len(s)) for s in sentences]
            row[condition] = score(
                sentences,
                predicted,
                exclude_punct=cfg.exclude_punct,
                punct_tags=cfg.punct_tags,
            )
        results[label] = row

    report = ablation_report(results)
    records = format_records(results)
    print(report)
    with open(os.path.join(args.outdir, "ablation.txt"), "w", encoding="utf-8") as f:
        f.write(report)
    with open(os.path.join(args.outdir, "ablation.jsonl"), "w", encoding="utf-8") as f:
        f.write(records)


if __name__ == "__main__":
    main()
