"""Process-independent value hashing: a leaf module, so that storage
(string affinity keys) and the sketches share it without an import cycle.
"""

from __future__ import annotations

import hashlib


def encode_value(value: object) -> bytes:
    """Canonical bytes for a stored value.

    Values that compare equal under SQL semantics must encode equally:
    ``1``, ``1.0`` and ``True`` all hash as the integer 1, so a BIGINT
    join key meets a DOUBLE join key in the same sketch bucket.
    """
    if value is None:
        return b"\x00"
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int):
        return b"i" + str(value).encode()
    if isinstance(value, float):
        return b"f" + repr(value).encode()
    if isinstance(value, str):
        return b"s" + value.encode("utf-8", "surrogatepass")
    return b"o" + repr(value).encode()


def value_hash(value: object, seed: int) -> int:
    """Stable keyed 64-bit hash of ``value``.

    blake2b keyed by the seed: deterministic across processes (unlike
    builtin ``hash`` on strings) and statistically strong enough that the
    sketches' cheap per-row mixers can derive a whole hash family from it.
    """
    digest = hashlib.blake2b(
        encode_value(value),
        digest_size=8,
        key=(seed % (1 << 64)).to_bytes(8, "little"),
    ).digest()
    return int.from_bytes(digest, "little")
