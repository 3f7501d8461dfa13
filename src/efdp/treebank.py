"""CoNLL-X treebank reading, writing and validation.

Tokens keep four fields: surface form (Vietnamese multi-syllable words use
underscores internally), POS tag, head index (0 = artificial root), and the
relation label. Text is UTF-8 and never case-folded or normalized.
"""

from dataclasses import dataclass

from .errors import ConllError, TreeError, parse_file

N_COLUMNS = 10


@dataclass(frozen=True)
class Token:
    index: int  # 1-based position in the sentence
    form: str
    pos: str
    head: int  # 0 means the artificial root
    deprel: str


@dataclass(frozen=True)
class Sentence:
    tokens: tuple

    def __len__(self):
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __getitem__(self, i):
        return self.tokens[i]

    @property
    def forms(self):
        return [t.form for t in self.tokens]


def parse_conll(text: str, validate: bool = True) -> list:
    """Parse CoNLL-X text (10 tab-separated columns, blank-line-delimited).

    Column 5 (POSTAG) is taken as the POS tag, falling back to column 4
    (CPOSTAG) when it is `_`. With ``validate=False`` the head/deprel columns
    are read leniently (non-integer heads become 0) and no tree check runs,
    which is what the parse command needs for unannotated input.
    """
    sentences = []
    rows = []
    first_line = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            if rows:
                sentences.append(_finish_sentence(rows, first_line, validate))
                rows = []
                first_line = None
            continue
        if line.lstrip().startswith("#"):
            raise ConllError(
                f"line {lineno}: comment lines are CoNLL-U, not CoNLL-X; "
                "convert the file before loading"
            )
        cols = line.split("\t")
        if len(cols) != N_COLUMNS:
            raise ConllError(
                f"line {lineno}: expected {N_COLUMNS} tab-separated columns, got {len(cols)}"
            )
        if "-" in cols[0] or "." in cols[0]:
            raise ConllError(
                f"line {lineno}: multiword/empty token ids ({cols[0]!r}) are "
                "CoNLL-U, not CoNLL-X"
            )
        try:
            index = int(cols[0])
        except ValueError:
            raise ConllError(f"line {lineno}: non-integer token id {cols[0]!r}") from None
        if index != len(rows) + 1:
            raise ConllError(f"line {lineno}: token id {index} out of sequence")
        form = cols[1]
        pos = cols[4] if cols[4] != "_" else cols[3]
        if not form:
            raise ConllError(f"line {lineno}: empty FORM")
        if not pos:
            raise ConllError(f"line {lineno}: empty POS")
        try:
            head = int(cols[6])
        except ValueError:
            if validate:
                raise ConllError(
                    f"line {lineno}: non-integer head {cols[6]!r}"
                ) from None
            head = 0
        deprel = cols[7] if cols[7] else "_"
        rows.append(Token(index, form, pos, head, deprel))
        if first_line is None:
            first_line = lineno
    if rows:
        sentences.append(_finish_sentence(rows, first_line, validate))
    return sentences


def _finish_sentence(rows, first_line, validate):
    sentence = Sentence(tuple(rows))
    if validate:
        validate_tree(sentence, f"sentence starting at line {first_line}")
    return sentence


def validate_tree(sentence: Sentence, label: str = "sentence") -> None:
    """Check the single-root, range, acyclicity, and reachability invariants."""
    n = len(sentence)
    roots = [t.index for t in sentence if t.head == 0]
    if len(roots) != 1:
        raise TreeError(f"{label}: expected exactly one root token, found {len(roots)}")
    for t in sentence:
        if t.head < 0 or t.head > n:
            raise TreeError(f"{label}: token {t.index} has head {t.head} out of range")
        if t.head == t.index:
            raise TreeError(f"{label}: token {t.index} is its own head")
    # walk each token toward the root; a repeat before reaching 0 is a cycle
    heads = {t.index: t.head for t in sentence}
    for t in sentence:
        seen = set()
        cur = t.index
        while cur != 0:
            if cur in seen:
                raise TreeError(f"{label}: cycle through token {t.index}")
            seen.add(cur)
            cur = heads[cur]


def read_conll(path: str, validate: bool = True) -> list:
    return parse_file(path, lambda text: parse_conll(text, validate=validate), ConllError)


def write_conll(sentences, predicted=None) -> str:
    """Render sentences as CoNLL-X; unknown columns become `_`.

    ``predicted`` optionally gives per-sentence lists of (head, deprel) pairs
    that override the gold HEAD/DEPREL columns.
    """
    if predicted is not None and len(predicted) != len(sentences):
        raise ValueError(
            f"predicted length {len(predicted)} != sentence count {len(sentences)}"
        )
    blocks = []
    for si, sentence in enumerate(sentences):
        over = None
        if predicted is not None:
            over = predicted[si]
            if len(over) != len(sentence):
                raise ValueError(
                    f"sentence {si}: {len(over)} predictions for {len(sentence)} tokens"
                )
        lines = []
        for t in sentence:
            head, deprel = (t.head, t.deprel) if over is None else over[t.index - 1]
            lines.append(
                "\t".join(
                    (str(t.index), t.form, "_", t.pos, t.pos, "_", str(head), deprel, "_", "_")
                )
            )
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def write_conll_file(path: str, sentences, predicted=None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(write_conll(sentences, predicted))


def is_projective(sentence: Sentence) -> bool:
    """True iff no two dependency arcs cross (root arcs anchored at 0 included).

    Two arcs cross when their endpoint intervals strictly interleave; arcs
    sharing an endpoint never cross.
    """
    arcs = [(min(t.head, t.index), max(t.head, t.index)) for t in sentence]
    for i in range(len(arcs)):
        lo1, hi1 = arcs[i]
        for j in range(i + 1, len(arcs)):
            lo2, hi2 = arcs[j]
            if len({lo1, hi1, lo2, hi2}) < 4:
                continue
            if lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1:
                return False
    return True


def filter_projective(sentences):
    """Split off non-projective sentences (the parser cannot produce them)."""
    kept = [s for s in sentences if is_projective(s)]
    return kept, len(sentences) - len(kept)
