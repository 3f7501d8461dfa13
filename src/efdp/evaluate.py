"""Attachment scores and the feature-ablation report."""

import json
from dataclasses import dataclass, field

from .errors import DataError


@dataclass
class EvalResult:
    uas: float
    las: float
    tokens: int
    correct_heads: int
    correct_labeled: int
    per_relation: dict = field(default_factory=dict)


PUNCT_TAGS = "CH,PUNCT"  # comma-separated POS tags excluded as punctuation by default


def score(gold, predicted, exclude_punct: bool = False, punct_tags: str = PUNCT_TAGS) -> EvalResult:
    """Unlabeled/labeled attachment scores over aligned sentences.

    ``predicted`` holds one list of per-token (head, deprel) rows per gold
    sentence. Punctuation (gold POS tags in the comma-separated
    ``punct_tags``) is excluded only when the flag is set.
    """
    if len(gold) != len(predicted):
        raise DataError(f"gold has {len(gold)} sentences, predictions have {len(predicted)}")
    excluded = set(punct_tags.split(",")) if exclude_punct else ()
    total = heads = labeled = 0
    per_relation = {}
    for si, (sentence, rows) in enumerate(zip(gold, predicted)):
        if len(rows) != len(sentence):
            raise DataError(f"sentence {si + 1}: predictions misaligned with gold tokens")
        for token, (head, rel) in zip(sentence, rows):
            if token.pos in excluded:
                continue
            total += 1
            stats = per_relation.setdefault(token.deprel, [0, 0, 0])
            stats[0] += 1
            if head == token.head:
                heads += 1
                stats[1] += 1
                if rel == token.deprel:
                    labeled += 1
                    stats[2] += 1
    uas = 100.0 * heads / total if total else 0.0
    las = 100.0 * labeled / total if total else 0.0
    return EvalResult(uas, las, total, heads, labeled, per_relation)


def ablation_report(results) -> str:
    """Aligned text table: one row per feature configuration."""
    conditions = list(dict.fromkeys(c for row in results.values() for c in row)) or ["test"]
    headers = ["model"]
    for condition in conditions:
        headers += [f"{condition} UAS%", f"{condition} LAS%"]
    rows = [headers]
    for config, row in results.items():
        cells = [config]
        for condition in conditions:
            result = row.get(condition)
            if result is None:
                cells += ["-", "-"]
            else:
                cells += [f"{result.uas:.2f}", f"{result.las:.2f}"]
        rows.append(cells)
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for ri, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if ri == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def format_records(results) -> str:
    """One JSON line per cell; ``results`` maps each feature configuration to {condition -> EvalResult}."""
    records = ({"config": config, "condition": condition, "uas": round(result.uas, 2),
                "las": round(result.las, 2), "tokens": result.tokens}
               for config, row in results.items() for condition, result in row.items())
    return "\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n"
