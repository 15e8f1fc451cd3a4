"""Tiny versioned-binary persistence: a magic header followed by a pickle."""

from __future__ import annotations

import pickle


def save_blob(path, magic: bytes, payload: dict) -> None:
    with open(path, "wb") as f:
        f.write(magic)
        pickle.dump(payload, f, protocol=4)


def load_blob(path, magic: bytes) -> dict:
    with open(path, "rb") as f:
        header = f.read(len(magic))
        if header != magic:
            raise ValueError(f"{path}: bad magic {header!r}, expected {magic!r}")
        try:
            return pickle.load(f)
        except Exception as exc:  # a damaged pickle can raise any of several types
            raise ValueError(f"{path}: corrupt or truncated file "
                             f"({type(exc).__name__}: {exc})") from exc
