"""Easy-first dependency parser with tree-LSTM structure encoding."""

__version__ = "0.1.0"

from .config import Config
from .easyfirst import arcs_to_rows, parse
from .evaluate import score
from .model import ParserModel
from .oracle import train
from .represent import build_vocab, load_pretrained
from .treebank import Sentence, Token, parse_conll, read_conll, write_conll

__all__ = [
    "Config",
    "ParserModel",
    "Sentence",
    "Token",
    "arcs_to_rows",
    "build_vocab",
    "load_pretrained",
    "parse",
    "parse_conll",
    "read_conll",
    "score",
    "train",
    "write_conll",
]
