"""Mutation fuzzing of the readers of outside input: only EfdpError may escape.

Each test starts from a valid input and applies a few random edits
(replace, insert or delete at a random offset), biased toward the bytes that
carry each format's structure. A model's .meta.json is also edited as JSON:
a value at any path is replaced or deleted before the byte edits.
"""

import copy
import json
import os
import struct
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from efdp.autodiff import ParameterStore
from efdp.config import parse_config
from efdp.easyfirst import parse
from efdp.errors import EfdpError
from efdp.model import ParserModel, meta_path
from efdp.represent import parse_pretrained
from efdp.synthetic import toy_corpus
from efdp.treebank import parse_conll, write_conll
from helpers import tiny_model

CONLL = write_conll(toy_corpus(seed=1, count=3, n_min=2, n_max=4))
CONFIG = (
    "train = t.conll\nepochs = 2\nseed = 3\nlr = 0.001\ndropout_alpha = 0.25\n"
    "use_char = true\ntest_size = 3\nword_dim = 5\ntest = none\n"
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


def saved_tiny_model():
    """The parameter blob and the parsed .meta.json of a saved tiny model."""
    model, _ = tiny_model(seed=4, count=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.bin")
        model.save(path)
        with open(path, "rb") as f:
            blob = f.read()
        with open(meta_path(path), encoding="utf-8") as f:
            return blob, json.load(f)


BLOB, META = saved_tiny_model()
SENTENCE = toy_corpus(seed=1, count=1, n_min=4, n_max=4)[0]


def json_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_paths(item, path + (i,))


META_PATHS = list(json_paths(META))
# ints stay small: a dimension of 10**6 would allocate gigabytes before any check
JSON_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 1, 2, float("nan"), "", "root", "<unk>", [], {}, ["a", "a"]]),
    st.integers(-3, 40),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 5), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 5), max_size=2),
)
META_EDITS = st.lists(
    st.tuples(
        st.sampled_from(META_PATHS),
        st.one_of(st.just(("delete",)), st.just(("duplicate",)), st.tuples(st.just("put"), JSON_VALUES)),
    ),
    min_size=1,
    max_size=4,
)


def edit_json(doc, edit_list):
    """``doc`` with each (path, action) applied: delete the value at the path,
    append a copy of a list's first entry, or put a new value there."""
    doc = copy.deepcopy(doc)
    for path, action in edit_list:
        if not path:
            doc = copy.deepcopy(action[1]) if action[0] == "put" else doc
            continue
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            current = parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed or retyped this path
        if not isinstance(parent, (dict, list)):
            continue  # a string put in place of a container also takes an index
        if action[0] == "delete":
            del parent[path[-1]]
        elif action[0] == "duplicate":
            if isinstance(current, list) and current:
                current.append(copy.deepcopy(current[0]))
        else:
            parent[path[-1]] = copy.deepcopy(action[1])
    return doc


@settings(max_examples=300, deadline=None)  # each example writes two files and builds a model
@given(META_EDITS, st.one_of(st.just([]), edits(BYTE_PIECES)))
def test_mutated_meta_files_raise_only_efdp_errors(edit_list, byte_edits):
    text = mutate(json.dumps(edit_json(META, edit_list)).encode(), byte_edits)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.bin")
        with open(path, "wb") as f:
            f.write(BLOB)
        with open(meta_path(path), "wb") as f:
            f.write(text)
        only_efdp_errors(lambda p: parse(SENTENCE, ParserModel.load(p)), path)
