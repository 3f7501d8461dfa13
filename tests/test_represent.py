import numpy as np
import pytest

from efdp.autodiff import Tape
from efdp.config import Config
from efdp.errors import DataError
from efdp.model import ParserModel
from efdp.represent import (
    UNK_ID,
    Vocab,
    build_vocab,
    char_compose,
    encode_sentence,
    parse_pretrained,
    word_vector,
)
from efdp.synthetic import toy_corpus
from efdp.treebank import Sentence, Token
from helpers import TINY, tiny_model


def sent(*rows):
    tokens = [Token(i, form, pos, head, rel) for i, (form, pos, head, rel) in enumerate(rows, start=1)]
    return Sentence(tuple(tokens))


CORPUS = [
    sent(("con_mèo", "N", 2, "nsubj"), ("ngủ", "V", 0, "root")),
    sent(
        ("Tôi", "P", 2, "nsubj"),
        ("thấy", "V", 0, "root"),
        ("một", "M", 4, "det"),
        ("con", "Nc", 5, "nmod"),
        ("chó", "N", 2, "dobj"),
    ),
]


def test_relation_count_and_ids():
    vocab = build_vocab(CORPUS)
    assert vocab.n_relations == 5  # nsubj, root, det, nmod, dobj
    assert sorted(vocab.rels.values()) == list(range(5))
    assert vocab.rel_names[vocab.rels["det"]] == "det"
    assert vocab.root_label == "root"


def test_vocab_is_deterministic():
    a = build_vocab(CORPUS)
    b = build_vocab(CORPUS)
    assert a.words == b.words and a.pos == b.pos and a.chars == b.chars and a.rels == b.rels


def test_vocab_rejects_empty_corpus():
    with pytest.raises(DataError):
        build_vocab([])


def test_unseen_symbols_fall_back_to_unk():
    vocab = build_vocab(CORPUS)
    assert vocab.word_id("unseen") == UNK_ID
    assert vocab.pos_id("ZZZ") == UNK_ID
    assert UNK_ID in vocab.char_ids("ø")


def test_vocab_meta_round_trip():
    vocab = build_vocab(CORPUS)
    again = Vocab.from_meta(vocab.to_meta())
    assert again.words == vocab.words
    assert again.rels == vocab.rels
    assert again.root_label == vocab.root_label


# ---- pretrained tables ----

PLAIN = "xin 0.5 1.0 -0.25\nchào 0.0 0.25 0.75\n"


def test_parse_pretrained_with_and_without_header():
    table = parse_pretrained(PLAIN)
    assert table.dim == 3 and len(table.vectors) == 2
    with_header = parse_pretrained("2 3\n" + PLAIN)
    assert with_header.dim == 3 and len(with_header.vectors) == 2
    assert np.array_equal(table.lookup("xin"), [0.5, 1.0, -0.25])


def test_pretrained_dimension_mismatch_names_line():
    with pytest.raises(DataError, match="line 2"):
        parse_pretrained("a 1.0 2.0\nb 1.0\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_pretrained_non_finite_value_names_line(value):
    with pytest.raises(DataError, match="line 2: non-finite"):
        parse_pretrained(f"a 1.0 2.0\nb 1.0 {value}\n")


def test_pretrained_empty_file_is_an_error():
    with pytest.raises(DataError):
        parse_pretrained("")
    with pytest.raises(DataError, match="line 1"):
        parse_pretrained("word\n")


def test_pretrained_unknown_vector_and_fallbacks():
    table = parse_pretrained(PLAIN)
    assert np.array_equal(table.unk, np.mean([[0.5, 1.0, -0.25], [0.0, 0.25, 0.75]], axis=0))
    assert np.array_equal(table.lookup("absent"), table.unk)
    assert np.array_equal(table.lookup("XIN"), table.lookup("xin"))  # lowercase fallback
    explicit = parse_pretrained("<unk> 9 9 9\n" + PLAIN)
    assert np.array_equal(explicit.lookup("absent"), [9, 9, 9])


def test_coverage_matches_brute_force():
    table = parse_pretrained(PLAIN)
    forms = ["xin", "chào", "bạn", "xin"]
    expected = len({"xin", "chào"}) / len({"xin", "chào", "bạn"})
    assert table.coverage(forms) == pytest.approx(expected)
    assert table.coverage([]) == 0.0


# ---- word vectors and sentence encoding ----


def test_char_compose_dims_match_pinned_defaults():
    corpus = toy_corpus(seed=1, count=3)
    vocab = build_vocab(corpus)
    cfg = Config(use_char=True, word_dim=6, pos_dim=3, vprime_dim=8, sent_hidden=4,
                 sent_layers=1, tree_hidden=4, label_dim=3, mlp_hidden=5)
    model = ParserModel(cfg, vocab)
    out = char_compose(Tape(), model, ["w01"])
    # char net pinned at dimension 100, two layers of 100 per direction
    assert cfg.char_dim == 100 and cfg.char_layers == 2 and cfg.char_hidden == 100
    assert out.value.shape == (200, 1)


def small_char_model():
    model, corpus = tiny_model(seed=4, use_char=True)
    return model, corpus


def test_char_compose_depends_on_character_order():
    model, _ = small_char_model()
    a, b = "w", "0"   # characters the training corpus contains
    assert model.vocab.chars.get(a) not in (None, UNK_ID)
    assert model.vocab.chars.get(b) not in (None, UNK_ID)
    t = Tape()
    same1 = char_compose(t, model, [a + a])
    same2 = char_compose(t, model, [a + a])
    assert np.array_equal(same1.value, same2.value)
    ab = char_compose(t, model, [a + b])
    ba = char_compose(t, model, [b + a])
    assert not np.array_equal(ab.value, ba.value)


def test_unseen_characters_use_the_unknown_embedding():
    model, _ = small_char_model()
    t = Tape()
    assert np.array_equal(
        char_compose(t, model, ["ø"]).value,  # either char is out of vocabulary
        char_compose(t, model, ["Ω"]).value,
    )


def test_single_character_word_composes():
    model, _ = small_char_model()
    out = char_compose(Tape(), model, ["w"])
    assert out.value.shape == (2 * model.config.char_hidden, 1)


def test_char_compose_columns_match_one_word_at_a_time():
    model, _ = small_char_model()
    forms = ["w01", "w", "0w1w0", "ø0"]  # lengths 3, 1, 5 and 2, one character unseen
    t = Tape()
    batched = char_compose(t, model, forms)
    assert batched.value.shape == (2 * model.config.char_hidden, len(forms))
    for j, form in enumerate(forms):
        np.testing.assert_allclose(batched.value[:, j : j + 1], char_compose(t, model, [form]).value,
                                   rtol=1e-12, atol=0)


def test_word_vector_columns_match_one_token_at_a_time_with_the_same_dropout_draws():
    model, corpus = tiny_model(seed=2, use_char=True, word_dropout=True, dropout_alpha=1.0)
    sentence = corpus[0]
    t = Tape()
    batch_rng, token_rng = np.random.default_rng(7), np.random.default_rng(7)
    batched = word_vector(t, model, sentence, rng=batch_rng)
    assert batched.value.shape == (model.config.vprime_dim, len(sentence))
    for k, token in enumerate(sentence):
        np.testing.assert_allclose(batched.value[:, k : k + 1], word_vector(t, model, [token], rng=token_rng).value,
                                   rtol=1e-12, atol=0)
    assert batch_rng.random() == token_rng.random()  # one draw per token, in sentence order


def test_word_vector_dim_fixed_and_pure_lookup_configs_agree():
    for flags in (dict(), dict(use_char=True)):
        model, corpus = tiny_model(seed=2, **flags)
        token = corpus[0][0]
        out = word_vector(Tape(), model, [token])
        assert out.value.shape == (model.config.vprime_dim, 1)


def test_word_vector_identical_for_equal_form_and_pos():
    model, corpus = tiny_model(seed=2)
    token = corpus[0][0]
    clone = Token(9, token.form, token.pos, 0, "root")
    t = Tape()
    assert np.array_equal(word_vector(t, model, [token]).value, word_vector(t, model, [clone]).value)


def test_word_vector_without_extras_uses_only_word_and_pos():
    model, corpus = tiny_model(seed=2)
    cfg = model.config
    token = corpus[0][0]
    t = Tape()
    out = word_vector(t, model, [token])
    wid = model.vocab.word_id(token.form)
    pid = model.vocab.pos_id(token.pos)
    x = np.vstack([model.word_emb.value[wid : wid + 1].T, model.pos_emb.value[pid : pid + 1].T])
    manual = np.tanh(model.w_v.value @ x + model.b_v.value)
    assert np.allclose(out.value, manual)


def test_word_dropout_replaces_rare_words():
    model, corpus = tiny_model(seed=2, word_dropout=True, dropout_alpha=1e9)
    token = corpus[0][0]
    t = Tape()
    dropped = word_vector(t, model, [token], rng=np.random.default_rng(0))
    unk_token = Token(1, "<absent-form>", token.pos, 0, "root")
    as_unk = word_vector(t, model, [unk_token])
    assert np.array_equal(dropped.value, as_unk.value)
    plain = word_vector(t, model, [token])
    assert not np.array_equal(dropped.value, plain.value)


def test_encode_sentence_lengths_and_single_token():
    model, corpus = tiny_model(seed=3)
    for sentence in corpus[:3]:
        vectors = encode_sentence(Tape(), model, sentence)
        assert vectors.value.shape == (model.v_dim, len(sentence))
    single = Sentence((Token(1, "w01", "P0", 0, "root"),))
    vectors = encode_sentence(Tape(), model, single)
    assert vectors.value.shape == (model.v_dim, 1)


def test_context_spreads_across_the_whole_sentence():
    model, corpus = tiny_model(seed=3)
    sentence = corpus[1]
    assert len(sentence) >= 3
    base = encode_sentence(Tape(), model, sentence).value.T
    tokens = list(sentence.tokens)
    j = len(tokens) // 2
    other = "w00" if tokens[j].form != "w00" else "w01"
    tokens[j] = Token(tokens[j].index, other, tokens[j].pos, tokens[j].head, tokens[j].deprel)
    changed = encode_sentence(Tape(), model, Sentence(tuple(tokens))).value.T
    for i in range(len(tokens)):
        assert not np.array_equal(base[i], changed[i]), f"position {i} unchanged"


def test_gradients_reach_character_embeddings():
    model, corpus = small_char_model()
    sentence = corpus[0]
    t = Tape()
    vectors = encode_sentence(t, model, sentence)
    loss = t.sum_all(vectors)
    t.backward(loss)
    used = {cid for tok in sentence for cid in model.vocab.char_ids(tok.form)}
    for cid in used:
        assert np.abs(model.char_emb.grad[cid]).max() > 0


def test_pretrained_block_feeds_word_vector():
    corpus = toy_corpus(seed=6, count=4)
    vocab = build_vocab(corpus)
    dim = 3
    lines = [f"{form} " + " ".join(str(round(0.1 * (i + j), 2)) for j in range(dim))
             for i, form in enumerate(sorted({t.form for s in corpus for t in s}))]
    table = parse_pretrained("\n".join(lines[:-1]) + "\n")  # leave one word uncovered
    cfg = Config(use_pretrained=True, **TINY)
    model = ParserModel(cfg, vocab, pretrained=table)
    out = word_vector(Tape(), model, [corpus[0][0]])
    assert out.value.shape == (cfg.vprime_dim, 1)
    assert model.config is cfg  # the table, not the config, carries its dimension
    assert model.w_v.value.shape[1] == cfg.word_dim + cfg.pos_dim + dim
