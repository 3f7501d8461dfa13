#!/usr/bin/env python3
"""Train the four feature configurations and report their attachment scores.

Rows: word+pos, +char, +pretrained, +char+pretrained. Columns: one UAS/LAS
pair per test condition (e.g. gold vs automatic POS tags). Each row is one
`efdp train` run, and each cell one `efdp parse` of that condition's file.
Emits the aligned text table plus one JSON record per cell.

Example:
    python3 scripts/run_ablation.py --train train.conll --test gold:test.conll \
        --test auto:test_auto.conll --pretrained vectors.txt --outdir runs/

Exit codes as for `efdp`: 0 success, 1 usage or configuration error or a path
that cannot be read or written, 2 data error, 130 interrupted (Ctrl-C).
"""

import os
import sys

from efdp import cli
from efdp.errors import ConfigError, EfdpError
from efdp.evaluate import PUNCT_TAGS, ablation_report, format_records
from efdp.treebank import read_conll

CONFIGS = (
    ("word+pos", []),
    ("+char", ["--use-char"]),
    ("+pretrained", ["--use-pretrained"]),
    ("+char+pretrained", ["--use-char", "--use-pretrained"]),
)


def run(args) -> int:
    conditions = {}
    for entry in args.test:
        name, colon, path = entry.partition(":")
        name, path = (name or "test", path) if colon else ("test", entry)
        if name in conditions:
            raise ConfigError(f"test condition {name!r} given twice")
        conditions[name] = path, read_conll(path)  # fail before any training

    base = ["--config", args.config] if args.config else []
    results = {}
    os.makedirs(args.outdir, exist_ok=True)
    for label, flags in CONFIGS:
        if "--use-pretrained" in flags and not args.pretrained:
            continue
        pretrained = ["--pretrained", args.pretrained] if "--use-pretrained" in flags else []
        stem = os.path.join(args.outdir, f"model_{label.strip('+').replace('+', '_')}")
        model = ["--model", stem + ".bin"]
        code = cli.main(["train", *base, *flags, *pretrained, "--train", args.train, *model])
        if code:
            return code
        row = {}
        for condition, (path, gold) in conditions.items():
            predicted = f"{stem}.{condition}.conll"
            code = cli.main(["parse", *base, *pretrained, *model, "--input", path, "--output", predicted])
            if code:
                return code
            row[condition] = cli.score_file(gold, predicted, args.exclude_punct, args.punct_tags)
        results[label] = row

    report = ablation_report(results)
    print(report)
    with open(os.path.join(args.outdir, "ablation.txt"), "w", encoding="utf-8") as f:
        f.write(report)
    with open(os.path.join(args.outdir, "ablation.jsonl"), "w", encoding="utf-8") as f:
        f.write(format_records(results))
    return 0


def main(argv=None) -> int:
    ap = cli.ArgumentParser(description=__doc__)
    ap.add_argument("--train", required=True)
    ap.add_argument(
        "--test",
        action="append",
        required=True,
        help="condition:path, repeatable (e.g. gold:test.conll auto:test_auto.conll); "
        "a bare path is the condition test",
    )
    ap.add_argument("--pretrained", help="embedding file; enables the pretrained rows")
    ap.add_argument("--config", help="base key=value config for dims/epochs/seed/test or test_size")
    ap.add_argument("--outdir", default=".")
    ap.add_argument("--exclude-punct", action="store_true", help="skip punctuation tokens when scoring")
    ap.add_argument("--punct-tags", default=PUNCT_TAGS, help="comma-separated POS tags")
    try:
        return run(ap.parse_args(argv))
    except (EfdpError, OSError, KeyboardInterrupt) as e:
        return cli.report(e)


if __name__ == "__main__":
    sys.exit(main())
