"""Append-only hash-chain ledger: the record-but-don't-prove baseline.

Each cut-layer message is recorded as one block holding the SHA-256 of its
canonical encoding.  Appends are unconditional and never inspect the
payload; that is exactly what makes this baseline lightweight and
unverifiable.  Canonical hash preimage (field order fixed, integers
big-endian):

    index (8 bytes BE) || prev_hash (32) || payload_digest (32) || sender (utf-8)

No wall clock is hashed: the index orders the blocks and a message's round
is inside its payload digest, so a run's chain reproduces from its manifest.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import List

GENESIS_PREV = bytes(32)
# the fields of a saved block and the JSON type of each
_FIELDS = {"index": int, "prev_hash": str, "payload_digest": str, "sender": str, "hash": str}
# a hash as to_dict writes it
_HEX32 = re.compile("[0-9a-f]{64}")


def block_hash(index: int, prev_hash: bytes, payload_digest: bytes,
               sender: str) -> bytes:
    pre = (
        index.to_bytes(8, "big")
        + prev_hash
        + payload_digest
        + sender.encode()
    )
    return hashlib.sha256(pre).digest()


@dataclass(frozen=True, slots=True)
class Block:
    index: int
    prev_hash: bytes
    payload_digest: bytes
    sender: str
    hash: bytes

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "prev_hash": self.prev_hash.hex(),
            "payload_digest": self.payload_digest.hex(),
            "sender": self.sender,
            "hash": self.hash.hex(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Block":
        """The block of a decoded to_dict.  Raises ValueError unless d holds
        exactly the five fields as to_dict writes them: index an int
        (not a bool) that fits in 8 bytes, the three hashes as 64
        lowercase hex digits and sender a str that UTF-8 can encode,
        as block_hash does."""
        if not isinstance(d, dict) or set(d) != set(_FIELDS):
            raise ValueError(f"a block is an object with the keys {', '.join(_FIELDS)}")
        for name, kind in _FIELDS.items():
            if type(d[name]) is not kind:
                raise ValueError(f"block {name} must be {kind.__name__}, not {d[name]!r}")
        if not 0 <= d["index"] < 1 << 64:
            raise ValueError(f"block index {d['index']} does not fit in 8 bytes")
        for name in ("prev_hash", "payload_digest", "hash"):
            if not _HEX32.fullmatch(d[name]):
                raise ValueError(f"block {name} {d[name]!r} is not 64 lowercase hex digits")
        try:
            d["sender"].encode()
        except UnicodeEncodeError:
            raise ValueError(f"block sender {d['sender']!r} is not encodable as UTF-8") from None
        return cls(
            index=d["index"],
            prev_hash=bytes.fromhex(d["prev_hash"]),
            payload_digest=bytes.fromhex(d["payload_digest"]),
            sender=d["sender"],
            hash=bytes.fromhex(d["hash"]),
        )


class Chain:
    """Single-writer block list starting at a fixed genesis block."""

    def __init__(self, blocks: List[Block]):
        self.blocks = blocks

    @classmethod
    def genesis(cls) -> "Chain":
        digest = hashlib.sha256(b"genesis").digest()
        h = block_hash(0, GENESIS_PREV, digest, "genesis")
        return cls([Block(0, GENESIS_PREV, digest, "genesis", h)])

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    def append_block(self, payload_digest: bytes, sender: str) -> Block:
        idx = self.head.index + 1
        h = block_hash(idx, self.head.hash, payload_digest, sender)
        block = Block(idx, self.head.hash, payload_digest, sender, h)
        self.blocks.append(block)
        return block

    def append_payload(self, payload: bytes, sender: str) -> Block:
        return self.append_block(hashlib.sha256(payload).digest(), sender)

    def verify(self) -> bool:
        """True iff linkage, indices, and every block hash check out."""
        if not self.blocks:
            return False
        g = self.blocks[0]
        if g.index != 0 or g.prev_hash != GENESIS_PREV:
            return False
        prev = None
        for i, b in enumerate(self.blocks):
            if b.index != i:
                return False
            if prev is not None and b.prev_hash != prev.hash:
                return False
            if b.hash != block_hash(b.index, b.prev_hash, b.payload_digest,
                                    b.sender):
                return False
            prev = b
        return True

    # -- persistence: JSON lines, one block per line -------------------------

    def save(self, path: str | Path) -> None:
        with open(path, "w") as f:
            for b in self.blocks:
                f.write(json.dumps(b.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Chain":
        """The chain of a saved file.  Raises ValueError, naming the line,
        on a line that is not JSON or not a block (see Block.from_dict)."""
        blocks = []
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    blocks.append(Block.from_dict(json.loads(line)))
                except ValueError as e:
                    raise ValueError(f"{path}: line {lineno}: {e}") from None
        return cls(blocks)

