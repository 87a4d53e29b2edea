"""Fuzzing of the FVL1 reader with hypothesis: whatever the bytes,
`read_container` returns entries or raises `ContainerError`, never another
exception.

The runs are derandomized and bounded, so they repeat exactly and stay fast.
"""

import struct
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from freqvfx import container as ct
from freqvfx.errors import ContainerError

VALID = ct.write_container({
    "weights": np.arange(6, dtype=np.float32).reshape(2, 3),
    "scalar": np.float64(2.5),
    "empty": np.zeros((0, 1, 1), dtype=np.float32),
})

FUZZ = settings(max_examples=300, derandomize=True, deadline=None, database=None)


def seal(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def read_or_reject(blob: bytes) -> None:
    try:
        entries = ct.read_container(blob)
    except ContainerError:
        return
    for name, arr in entries.items():
        assert isinstance(name, str) and isinstance(arr, np.ndarray)


def apply_edits(body: bytes, edits) -> bytes:
    out = bytearray(body)
    for kind, pos, value in edits:
        if kind == "insert":
            out.insert(min(pos, len(out)), value)
        elif pos < len(out):
            if kind == "set":
                out[pos] = value
            else:
                del out[pos]
    return bytes(out)


edits = st.lists(st.tuples(st.sampled_from(("set", "insert", "delete")),
                           st.integers(0, len(VALID)), st.integers(0, 255)),
                 min_size=1, max_size=8)


@FUZZ
@given(edits, st.booleans(), st.one_of(st.none(), st.integers(0, len(VALID) + 8)))
def test_edited_bytes_read_or_raise_container_error(edits, reseal, cut):
    """Set, insert and delete bytes of a valid container; keep the old checksum
    or compute a new one over the edited body; optionally truncate."""
    body = apply_edits(VALID[:-4], edits)
    blob = seal(body) if reseal else body + VALID[-4:]
    read_or_reject(blob if cut is None else blob[:cut])


# an entry as written on disk, with every field free to disagree with the
# others: few names (so duplicates occur), unknown dtype tags, any rank up to
# past numpy's 64 axes, small or huge u32 dims and a payload of any length
dim = st.one_of(st.integers(0, 4), st.integers(2**31, 2**32 - 1))
entry = st.tuples(st.sampled_from(("a", "b", "μ")), st.integers(0, 3),
                  st.lists(dim, max_size=70), st.binary(max_size=64))


def encode(entries) -> bytes:
    body = b"FVL1" + struct.pack("<HH", 1, len(entries))
    for name, tag, dims, payload in entries:
        nameb = name.encode("utf-8")
        body += (struct.pack("<H", len(nameb)) + nameb + struct.pack("<BB", tag, len(dims))
                 + struct.pack(f"<{len(dims)}I", *dims) + payload)
    return seal(body)


@FUZZ
@given(st.lists(entry, max_size=4), st.one_of(st.none(), st.integers(0, 512)))
def test_lying_headers_read_or_raise_container_error(entries, cut):
    blob = encode(entries)
    read_or_reject(blob if cut is None else blob[:cut])
