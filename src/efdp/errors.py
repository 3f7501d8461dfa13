"""Exception types shared across the package.

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


def read_text(path: str, error: type) -> str:
    """The contents of a UTF-8 text file; bytes that do not decode raise ``error``."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
