import numpy as np
import pytest
from hypothesis import given, strategies as st

from efdp.errors import ConllError, TreeError
from efdp.synthetic import random_sentence
from efdp.treebank import (
    Sentence,
    Token,
    filter_projective,
    is_projective,
    parse_conll,
    validate_tree,
    write_conll,
)

MINIMAL = (
    "1\tTôi\t_\tP\tP\t_\t2\tnsubj\t_\t_\n"
    "2\tcó\t_\tV\tV\t_\t0\troot\t_\t_\n"
)


def make_sentence(heads, rels=None, forms=None, pos=None):
    tokens = []
    for i, head in enumerate(heads, start=1):
        tokens.append(
            Token(
                i,
                forms[i - 1] if forms else f"w{i}",
                pos[i - 1] if pos else "N",
                head,
                rels[i - 1] if rels else ("root" if head == 0 else "dep"),
            )
        )
    return Sentence(tuple(tokens))


def random_tree_heads(rng, n):
    """Arbitrary (not necessarily projective) single-rooted tree."""
    order = rng.permutation(n) + 1
    heads = {int(order[0]): 0}
    for k in range(1, n):
        heads[int(order[k])] = int(order[int(rng.integers(0, k))])
    return [heads[i] for i in range(1, n + 1)]


def test_parse_minimal_block():
    sentences = parse_conll(MINIMAL)
    assert len(sentences) == 1
    s = sentences[0]
    assert len(s) == 2
    assert s[0].form == "Tôi" and s[0].pos == "P" and s[0].head == 2
    assert s[1].head == 0 and s[1].deprel == "root"


def test_parse_empty_input():
    assert parse_conll("") == []
    assert parse_conll("\n\n") == []


def test_pos_falls_back_to_cpos():
    text = "1\tx\t_\tNc\t_\t_\t0\troot\t_\t_\n"
    assert parse_conll(text)[0][0].pos == "Nc"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConllError, match="line 1"):
        parse_conll("1\tx\t_\tN\n")
    bad_head = MINIMAL.replace("2\tnsubj", "q\tnsubj")
    with pytest.raises(ConllError, match="line 1.*head"):
        parse_conll(bad_head)
    with pytest.raises(ConllError, match="line 2"):
        parse_conll("1\tx\t_\tN\tN\t_\t0\troot\t_\t_\nboom\n")
    with pytest.raises(ConllError, match="non-integer token id"):
        parse_conll("x\ty\t_\tN\tN\t_\t0\troot\t_\t_\n")


def test_conllu_constructs_rejected():
    with pytest.raises(ConllError, match="CoNLL-U"):
        parse_conll("# sent_id = 1\n" + MINIMAL)
    with pytest.raises(ConllError, match="CoNLL-U"):
        parse_conll("1-2\tdu\t_\tN\tN\t_\t0\troot\t_\t_\n")


def test_tree_validation():
    with pytest.raises(TreeError, match="one root"):
        parse_conll(MINIMAL.replace("2\tnsubj", "0\tnsubj"))
    cyc = (
        "1\ta\t_\tN\tN\t_\t2\tdep\t_\t_\n"
        "2\tb\t_\tN\tN\t_\t1\tdep\t_\t_\n"
        "3\tc\t_\tN\tN\t_\t0\troot\t_\t_\n"
    )
    with pytest.raises(TreeError, match="cycle"):
        parse_conll(cyc)
    with pytest.raises(TreeError, match="out of range"):
        parse_conll(MINIMAL.replace("2\tnsubj", "9\tnsubj"))
    with pytest.raises(TreeError, match="own head"):
        parse_conll(MINIMAL.replace("2\tnsubj", "1\tnsubj"))


def test_lenient_mode_for_unannotated_input():
    text = MINIMAL.replace("2\tnsubj", "_\t_").replace("0\troot", "_\t_")
    sentences = parse_conll(text, validate=False)
    assert [t.head for t in sentences[0]] == [0, 0]


@given(st.integers(0, 10_000), st.integers(1, 10))
def test_round_trip_preserves_fields(seed, n):
    rng = np.random.default_rng(seed)
    s = make_sentence(
        random_tree_heads(rng, n),
        rels=[f"r{int(rng.integers(0, 3))}" for _ in range(n)],
        forms=[f"f{int(rng.integers(0, 5))}" for _ in range(n)],
        pos=[f"P{int(rng.integers(0, 3))}" for _ in range(n)],
    )
    parsed = parse_conll(write_conll([s]))
    assert parsed[0].tokens == s.tokens


def test_round_trip_is_idempotent():
    corpus = [random_sentence(np.random.default_rng(k)) for k in range(8)]
    once = write_conll(parse_conll(write_conll(corpus)))
    assert once == write_conll(corpus)


def test_write_with_predictions_overrides_gold():
    s = parse_conll(MINIMAL)[0]
    out = write_conll([s], [[(0, "root"), (1, "dobj")]])
    reparsed = parse_conll(out)[0]
    assert [t.head for t in reparsed] == [0, 1]
    assert [t.deprel for t in reparsed] == ["root", "dobj"]


def test_write_length_mismatch():
    s = parse_conll(MINIMAL)[0]
    with pytest.raises(ValueError):
        write_conll([s], [[(0, "root")]])
    with pytest.raises(ValueError):
        write_conll([s], [])


def test_projectivity_cases():
    assert is_projective(make_sentence([2, 3, 0]))  # left-branching chain
    assert is_projective(make_sentence([2, 0, 5, 5, 2]))
    assert not is_projective(make_sentence([0, 4, 1, 1]))  # arcs (1,3) x (2,4)
    # crossing through the root arc anchored at position 0
    assert not is_projective(make_sentence([3, 0, 2]))


def descendants_projective(sentence):
    """Independent check: every arc span contains only the head's descendants."""
    heads = {t.index: t.head for t in sentence}

    def descends(node, ancestor):
        while node != 0:
            if node == ancestor:
                return True
            node = heads[node]
        return ancestor == 0

    for t in sentence:
        lo, hi = min(t.index, t.head), max(t.index, t.head)
        for k in range(lo + 1, hi):
            if not descends(k, t.head):
                return False
    return True


@given(st.integers(0, 10_000), st.integers(2, 10))
def test_projectivity_matches_descendant_definition(seed, n):
    rng = np.random.default_rng(seed)
    s = make_sentence(random_tree_heads(rng, n))
    assert is_projective(s) == descendants_projective(s)


def test_filter_projective():
    good = make_sentence([2, 0])
    bad = make_sentence([3, 0, 2])
    kept, dropped = filter_projective([good, bad, good])
    assert kept == [good, good] and dropped == 1


def test_generated_sentences_are_valid():
    for k in range(30):
        s = random_sentence(np.random.default_rng(k))
        validate_tree(s)
        assert is_projective(s)
