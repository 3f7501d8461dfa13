"""The full trainable parser model: embeddings, encoders, scorers, and IO.

A saved model is two files: ``<path>`` holds the binary parameter dump and
``<path>.meta.json`` holds the vocabulary plus the architecture fields needed
to rebuild the network before loading values into it.
"""

import contextlib
import json
import mmap
import os

import numpy as np

from .autodiff import ParameterStore
from .config import DIMS, Config
from .easyfirst import WINDOW_SLOTS
from .errors import ConfigError, DataError
from .layers import BiLstm, LstmCell, Mlp, embedding_init, glorot
from .represent import PretrainedTable, Vocab, load_pretrained

META_VERSION = 1

# architecture fields that must match between training and loading; the
# meta file's arch also holds ``pretrained_dim``, which the embedding file owns
ARCH_FIELDS = ("use_char", "use_pretrained", *DIMS)


class ParserModel:
    """All trainable parameters plus hyperparameters and vocabularies."""

    def __init__(self, config: Config, vocab: Vocab, pretrained: PretrainedTable = None):
        if config.use_pretrained and pretrained is None:
            raise ConfigError("use_pretrained is set but no pretrained table was given")
        self.config = config
        self.vocab = vocab
        self.pretrained = pretrained
        self.rel_names = vocab.rel_names
        self.store = ParameterStore()
        rng = np.random.default_rng(config.seed)
        store = self.store

        self.v_dim = 2 * config.sent_hidden  # contextual vector size
        self.n_relations = vocab.n_relations

        self.word_emb = store.add("word_emb", embedding_init(rng, len(vocab.words), config.word_dim))
        self.pos_emb = store.add("pos_emb", embedding_init(rng, len(vocab.pos), config.pos_dim))
        if config.use_char:
            self.char_emb = store.add("char_emb", embedding_init(rng, len(vocab.chars), config.char_dim))
        else:
            self.char_emb = None
        self.rel_emb = store.add("rel_emb", embedding_init(rng, self.n_relations, config.label_dim))
        # label slot of the tree encoder before any child is attached
        self.null_label = store.add("null_label", embedding_init(rng, config.label_dim, 1))
        # window slots falling outside the pending list
        self.pad_left = store.add("pad_left", embedding_init(rng, self.v_dim, 1))
        self.pad_right = store.add("pad_right", embedding_init(rng, self.v_dim, 1))

        in_width = config.word_dim + config.pos_dim
        if config.use_char:
            in_width += 2 * config.char_hidden
        if config.use_pretrained:
            in_width += pretrained.dim
        self.w_v = store.add("w_v", glorot(rng, np.empty((config.vprime_dim, in_width))))
        self.b_v = store.add("b_v", np.zeros((config.vprime_dim, 1)))

        if config.use_char:
            self.char_net = BiLstm(store, "char", config.char_dim, config.char_hidden, config.char_layers, rng)
        else:
            self.char_net = None
        self.sent_net = BiLstm(store, "sent", config.vprime_dim, config.sent_hidden, config.sent_layers, rng)

        # child inputs to the tree LSTMs carry the child encoding plus the
        # embedding of its relation, so encodings must match the v dimension
        tree_in = self.v_dim + config.label_dim
        self.tree = tuple(LstmCell(store, name, tree_in, config.tree_hidden, rng)
                          for name in ("tree_left", "tree_right"))  # indexed by direction, LEFT then RIGHT
        self.w_e = store.add("w_e", glorot(rng, np.empty((self.v_dim, 2 * config.tree_hidden + config.label_dim))))
        self.b_e = store.add("b_e", np.zeros((self.v_dim, 1)))

        window = WINDOW_SLOTS * self.v_dim
        self.mlp_u = Mlp(store, "mlp_u", (window, config.mlp_hidden, 2), rng, WINDOW_SLOTS)
        self.mlp_r = Mlp(store, "mlp_r", (window, config.mlp_hidden, 2 * self.n_relations), rng, WINDOW_SLOTS)

    # ---- persistence ----

    def save(self, path: str) -> None:
        """Writes both files beside their targets first, then moves them into place.

        A failure before the moves leaves an earlier pair at ``path`` as it was
        and no temporary file behind.
        """
        meta = {
            "meta_version": META_VERSION,
            "arch": {
                **{name: getattr(self.config, name) for name in ARCH_FIELDS},
                "pretrained_dim": self.pretrained.dim if self.config.use_pretrained else None,
            },
            "vocab": self.vocab.to_meta(),
        }
        tmp_bin, tmp_meta = path + ".tmp", meta_path(path) + ".tmp"
        try:
            with open(tmp_bin, "wb") as f:
                f.write(self.store.to_bytes())
            with open(tmp_meta, "w", encoding="utf-8") as f:
                json.dump(meta, f, ensure_ascii=False, sort_keys=True, indent=0)
                f.write("\n")
            os.replace(tmp_bin, path)
            os.replace(tmp_meta, meta_path(path))
        finally:
            for tmp in (tmp_bin, tmp_meta):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(tmp)

    @classmethod
    def load(cls, path: str, pretrained: str = None) -> "ParserModel":
        """The model at ``path``; ``pretrained`` is the embedding file's path, read only if the model needs it."""
        try:
            with open(meta_path(path), encoding="utf-8") as f:
                meta = json.load(f)  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        except ValueError as e:
            raise DataError(f"malformed model metadata {meta_path(path)}: {e}") from None
        version = meta.get("meta_version") if isinstance(meta, dict) else None
        if version != META_VERSION:
            raise DataError(f"unsupported model metadata version {version}")
        try:
            arch = {**meta["arch"]}  # a TypeError unless arch is a mapping
            dim = arch.pop("pretrained_dim", None)
            cfg = Config(**arch)
            cfg.validate()
        except ConfigError as e:  # a setting out of range is damage to the file
            raise DataError(f"malformed model metadata {meta_path(path)}: {e}") from None
        except (KeyError, TypeError) as e:
            raise DataError(f"malformed model metadata {meta_path(path)}: {e!r}") from None
        table = None
        if cfg.use_pretrained:
            if not pretrained:
                raise ConfigError("model was trained with pretrained embeddings; pass the embedding file")
            table = load_pretrained(pretrained)
            if dim != table.dim:
                raise ConfigError(f"embedding file has dimension {table.dim}, the model expects {dim}")
        try:
            model = cls(cfg, Vocab.from_meta(meta["vocab"]), pretrained=table)
        except (KeyError, TypeError, ValueError, MemoryError) as e:  # dims come from the file
            raise DataError(f"malformed model metadata {meta_path(path)}: {e!r}") from None
        with open(path, "rb") as f:  # mmap refuses an empty file, which fails the header check as b""
            data = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) if os.fstat(f.fileno()).st_size else b""
        model.store.load_bytes(data)  # the map is not closed: a decode error's traceback may still view it
        return model


def meta_path(model_path: str) -> str:
    return model_path + ".meta.json"
