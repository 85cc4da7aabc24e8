"""Append-only hash-chain ledger: the record-but-don't-prove baseline.

Each cut-layer message is recorded as one block holding the SHA-256 of its
canonical encoding.  Appends are unconditional and never inspect the
payload; that is exactly what makes this baseline lightweight and
unverifiable.  Canonical hash preimage (field order fixed, integers
big-endian):

    index (8 bytes BE) || prev_hash (32) || payload_digest (32)
    || timestamp_ms (8 bytes BE) || sender (utf-8)
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List

GENESIS_PREV = bytes(32)


def _now_ms() -> int:
    return time.time_ns() // 1_000_000


def block_hash(index: int, prev_hash: bytes, payload_digest: bytes,
               timestamp_ms: int, sender: str) -> bytes:
    pre = (
        index.to_bytes(8, "big")
        + prev_hash
        + payload_digest
        + timestamp_ms.to_bytes(8, "big")
        + sender.encode()
    )
    return hashlib.sha256(pre).digest()


@dataclass(frozen=True, slots=True)
class Block:
    index: int
    prev_hash: bytes
    payload_digest: bytes
    timestamp_ms: int
    sender: str
    hash: bytes

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "prev_hash": self.prev_hash.hex(),
            "payload_digest": self.payload_digest.hex(),
            "timestamp_ms": self.timestamp_ms,
            "sender": self.sender,
            "hash": self.hash.hex(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Block":
        return cls(
            index=int(d["index"]),
            prev_hash=bytes.fromhex(d["prev_hash"]),
            payload_digest=bytes.fromhex(d["payload_digest"]),
            timestamp_ms=int(d["timestamp_ms"]),
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
        h = block_hash(0, GENESIS_PREV, digest, 0, "genesis")
        return cls([Block(0, GENESIS_PREV, digest, 0, "genesis", h)])

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    def append_block(self, payload_digest: bytes, sender: str,
                     timestamp_ms: int | None = None) -> Block:
        ts = _now_ms() if timestamp_ms is None else timestamp_ms
        idx = self.head.index + 1
        h = block_hash(idx, self.head.hash, payload_digest, ts, sender)
        block = Block(idx, self.head.hash, payload_digest, ts, sender, h)
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
                                    b.timestamp_ms, b.sender):
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
        blocks = []
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    blocks.append(Block.from_dict(json.loads(line)))
        return cls(blocks)

