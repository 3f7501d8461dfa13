"""Exception types shared across the package, and the file reader whose errors name the file.

ConfigError maps to CLI exit code 1, DataError to exit code 2.
"""


class EfdpError(Exception):
    pass


class ConfigError(EfdpError):
    """Bad configuration or usage: unknown keys, missing paths, invalid dims."""


class DataError(EfdpError):
    """Malformed input data: treebanks, embedding files, model files."""


class ConllError(DataError):
    """CoNLL parse failure; message carries the 1-based line number."""


class TreeError(DataError):
    """A sentence whose head indices do not form a single-rooted tree."""


def parse_file(path: str, parse, error: type):
    """``parse`` of the UTF-8 text at ``path``, with the path in front of its errors; bytes that
    do not decode raise ``error``, which names the path."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    try:
        return parse(text)
    except EfdpError as e:
        raise type(e)(f"{path}: {e}") from None
