"""Mutation fuzzing of the readers of outside input: only EfdpError may escape.

Each test starts from a valid input and applies a few random edits
(replace, insert or delete at a random offset), biased toward the bytes that
carry each format's structure.
"""

import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from efdp.autodiff import ParameterStore
from efdp.config import parse_config
from efdp.errors import EfdpError
from efdp.represent import parse_pretrained
from efdp.synthetic import toy_corpus
from efdp.treebank import parse_conll, write_conll

CONLL = write_conll(toy_corpus(seed=1, count=3, n_min=2, n_max=4))
CONFIG = (
    "train = t.conll\nepochs = 2\nseed = 3\nlr = 0.001\nbeta1 = 0.9\n"
    "use_char = true\ntest_size = 3\nword_dim = 5\npretrained_dim = none\n"
)
PRETRAINED = "3 2\nxin 0.5 -1.0\nchào 0.25 1e-3\n<unk> 0 0\n"


def small_store():
    store = ParameterStore()
    store.add("emb", np.arange(6.0).reshape(2, 3))
    store.add("mlp/b", np.ones((1, 1)))
    return store


MODEL = small_store().to_bytes()

TEXT_PIECES = st.one_of(
    st.sampled_from(["\t", "\n", "\r", " ", "_", "-", ".", "#", "=", "0", "1", "-1", "99", "nan", "1e999"]),
    st.text(max_size=4),
)
BYTE_PIECES = st.one_of(
    st.sampled_from([bytes(4), b"\xff" * 4, struct.pack("<I", 2**31), struct.pack("<d", float("nan"))]),
    st.binary(min_size=1, max_size=8),
)


def edits(pieces):
    return st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(("replace", "insert", "delete")), pieces),
        min_size=1,
        max_size=6,
    )


def mutate(data, edit_list):
    for offset, kind, piece in edit_list:
        i = offset % (len(data) + 1)
        if kind == "insert":
            data = data[:i] + piece + data[i:]
        elif kind == "delete":
            data = data[:i] + data[i + len(piece) :]
        else:
            data = data[:i] + piece + data[i + len(piece) :]
    return data


def only_efdp_errors(read, data):
    try:
        read(data)
    except EfdpError:
        pass


@settings(max_examples=300)
@given(edits(TEXT_PIECES), st.booleans())
def test_mutated_treebanks_raise_only_data_errors(edit_list, validate):
    only_efdp_errors(lambda text: parse_conll(text, validate=validate), mutate(CONLL, edit_list))


@settings(max_examples=300)
@given(edits(TEXT_PIECES))
def test_mutated_configs_raise_only_config_errors(edit_list):
    only_efdp_errors(lambda text: parse_config(text).validate(), mutate(CONFIG, edit_list))


@settings(max_examples=300)
@given(edits(TEXT_PIECES))
def test_mutated_pretrained_files_raise_only_data_errors(edit_list):
    only_efdp_errors(parse_pretrained, mutate(PRETRAINED, edit_list))


@settings(max_examples=300)
@given(edits(BYTE_PIECES))
def test_mutated_model_files_raise_only_data_errors(edit_list):
    only_efdp_errors(small_store().load_bytes, mutate(MODEL, edit_list))
