"""Versioned binary persistence: one file format for every model.

A file holds the magic; the byte length of a JSON header, as an 8-byte
little-endian integer; the header, padded with spaces so that the data
starts on an 8-byte boundary; then every array's float64 little-endian
bytes, one after another. The header is ``{"meta": {...}, "arrays":
[{"name": ..., "shape": [...], "offset": k}, ...]}``, with each offset
counted in values from the start of the data. Loading reads the file into
one buffer, and the arrays it returns are views of that buffer.

Checkpoints are ``SPNN2`` files and n-gram LMs ``NGLM2`` files (no arrays).
Version 1 files can run code when read, so they are refused on their magic.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

_LENGTH_BYTES = 8  # the header-length field
_ALIGN = 8  # the data starts at a multiple of this many bytes


def save_arrays(path, magic: bytes, meta: dict, arrays) -> None:
    """Write ``meta`` and the ``(name, array)`` pairs of ``arrays``, in order.

    The same meta and arrays always give the same bytes.
    """
    arrays = [(name, np.ascontiguousarray(a, dtype="<f8")) for name, a in arrays]
    entries, at = [], 0
    for name, a in arrays:
        entries.append({"name": name, "shape": list(a.shape), "offset": at})
        at += a.size
    header = json.dumps({"meta": meta, "arrays": entries}, separators=(",", ":"),
                        check_circular=False).encode()  # a header never refers to itself
    header += b" " * (-(len(magic) + _LENGTH_BYTES + len(header)) % _ALIGN)
    with open(path, "wb") as f:
        f.write(magic)
        f.write(len(header).to_bytes(_LENGTH_BYTES, "little"))
        f.write(header)
        for _, a in arrays:
            f.write(a.data)


def load_arrays(path, magic: bytes, build=None):
    """Read and check a file written by ``save_arrays``.

    Returns ``{"meta": meta, "arrays": {name: array}}``, arrays in saved
    order. With ``build``, returns ``build(meta, arrays)`` instead: it must
    take (pop) out of ``arrays`` every array the object it builds uses,
    and raise ``ValueError`` when the meta does not describe one. What it
    leaves behind, or rejects, makes the file invalid. Every problem
    raises ``ValueError`` naming ``path``.
    """
    with open(path, "rb") as f:
        buf = np.empty(os.fstat(f.fileno()).st_size, dtype=np.uint8)  # not zero-filled
        got = f.readinto(buf)
    if got != len(buf):
        raise ValueError(f"{path}: truncated file: read {got} of {len(buf)} bytes")
    found = buf[:len(magic)].tobytes()
    if found != magic:
        if found[:-1] == magic[:-1] and found[-1:].isdigit():
            advice = ("; version 1 files can run code when read and are never loaded, "
                      "so save the model again") if found[-1:] == b"1" else ""
            raise ValueError(f"{path}: format {found.decode()} is not read, only "
                             f"{magic.decode()}{advice}")
        raise ValueError(f"{path}: bad magic {found!r}, expected {magic!r}")
    start = len(magic) + _LENGTH_BYTES
    if len(buf) < start:
        raise ValueError(f"{path}: truncated file: it ends inside the header length")
    length = int.from_bytes(buf[len(magic):start].tobytes(), "little")
    if length > len(buf) - start:
        raise ValueError(f"{path}: truncated file: a {length}-byte header, "
                         f"{len(buf) - start} bytes left")
    try:
        header = json.loads(buf[start:start + length].tobytes())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep
        raise ValueError(f"{path}: corrupt header ({type(exc).__name__}: {exc})") from None
    meta = header.get("meta") if isinstance(header, dict) else None
    entries = header.get("arrays") if isinstance(header, dict) else None
    if not isinstance(meta, dict) or not isinstance(entries, list):
        raise ValueError(f"{path}: corrupt header: no meta object and arrays list")
    layout, at = {}, 0  # name -> (shape, offset)
    for e in entries:
        name, shape, offset = ((e.get("name"), e.get("shape"), e.get("offset"))
                               if isinstance(e, dict) else (None, None, None))
        if (not isinstance(name, str) or name in layout or not isinstance(shape, list)
                or not all(type(d) is int and d >= 0 for d in shape)
                or type(offset) is not int or offset != at):
            raise ValueError(f"{path}: corrupt header: bad array entry {str(e)[:80]}")
        layout[name] = (shape, offset)
        at += math.prod(shape)
    data_start = start + length
    have = len(buf) - data_start
    if have < 8 * at:
        raise ValueError(f"{path}: truncated file: the arrays take {8 * at} bytes, "
                         f"{have} follow the header")
    if have > 8 * at:
        raise ValueError(f"{path}: corrupt file: {have - 8 * at} bytes after the last array")
    if data_start % _ALIGN:
        raise ValueError(f"{path}: corrupt file: the data starts at byte {data_start}, "
                         f"not at a multiple of {_ALIGN}")
    data = buf[data_start:].view("<f8")
    arrays = {name: data[offset:offset + math.prod(shape)].reshape(shape)
              for name, (shape, offset) in layout.items()}
    if not np.isfinite(data).all():
        bad = next(name for name, a in arrays.items() if not np.isfinite(a).all())
        raise ValueError(f"{path}: corrupt file: array {bad} holds a non-finite value")
    if build is None:
        return {"meta": meta, "arrays": arrays}
    try:
        built = build(meta, arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if arrays:
        raise ValueError(f"{path}: holds arrays the model does not have: "
                         f"{', '.join(list(arrays)[:5])}")
    return built
