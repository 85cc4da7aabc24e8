import dataclasses
import random
import time

import pytest

from zksplit.ledger import Block, Chain, block_hash


class TestAppend:
    def test_first_block_links_to_genesis(self):
        chain = Chain.genesis()
        b = chain.append_payload(b"hello", sender="client-0")
        assert b.index == 1
        assert b.prev_hash == chain.blocks[0].hash
        assert chain.verify()

    def test_identical_payloads_different_hashes(self):
        chain = Chain.genesis()
        b1 = chain.append_block(b"\x01" * 32, "c")
        b2 = chain.append_block(b"\x01" * 32, "c")
        assert (b1.index, b1.prev_hash) != (b2.index, b2.prev_hash)
        assert b1.hash != b2.hash  # index and prev_hash are part of the preimage

    def test_append_never_validates_payload(self):
        chain = Chain.genesis()
        chain.append_payload(b"", "x")
        chain.append_payload(b"\x00" * 10_000, "x")
        assert chain.verify()

    def test_bulk_10k_appends(self):
        chain = Chain.genesis()
        t0 = time.perf_counter()
        for i in range(10_000):
            chain.append_payload(i.to_bytes(4, "big"), "client-0")
        elapsed = time.perf_counter() - t0
        assert chain.verify()
        assert len(chain) == 10_001
        assert elapsed < 10.0  # appends are O(1) record-keeping


class TestVerify:
    def _chain(self, n=50):
        chain = Chain.genesis()
        for i in range(n):
            chain.append_payload(b"msg%d" % i, f"client-{i % 3}")
        return chain

    def test_untouched_chain_valid(self):
        assert self._chain().verify()

    @pytest.mark.parametrize("field,value", [
        ("payload_digest", b"\xff" * 32),
        ("sender", "mallory"),
        ("prev_hash", b"\x00" * 32),
        ("index", 999),
        ("hash", b"\xaa" * 32),
    ])
    def test_any_single_field_mutation_detected(self, field, value):
        chain = self._chain()
        mid = len(chain) // 2
        chain.blocks[mid] = dataclasses.replace(chain.blocks[mid], **{field: value})
        assert not chain.verify()

    def test_reorder_detected(self):
        chain = self._chain()
        chain.blocks[10], chain.blocks[11] = chain.blocks[11], chain.blocks[10]
        assert not chain.verify()

    def test_truncation_from_middle_detected(self):
        chain = self._chain()
        del chain.blocks[5]
        assert not chain.verify()

    def test_forged_tail_with_consistent_hash_detected(self):
        # recomputing the hash for a mutated block still breaks linkage
        chain = self._chain()
        b = chain.blocks[-2]
        forged = Block(
            index=b.index,
            prev_hash=b.prev_hash,
            payload_digest=b"\x42" * 32,
            sender=b.sender,
            hash=block_hash(b.index, b.prev_hash, b"\x42" * 32, b.sender),
        )
        chain.blocks[-2] = forged
        assert not chain.verify()


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        chain = Chain.genesis()
        for i in range(20):
            chain.append_payload(b"p%d" % i, "s")
        path = tmp_path / "chain.jsonl"
        chain.save(path)
        back = Chain.load(path)
        assert back.verify()
        assert [b.hash for b in back.blocks] == [b.hash for b in chain.blocks]

    def test_sender_that_utf8_cannot_encode_is_refused_naming_its_line(self, tmp_path):
        """block_hash hashes the sender's UTF-8 bytes, so a lone surrogate,
        which JSON can spell but UTF-8 cannot encode, is refused on load
        instead of raising from verify."""
        chain = Chain.genesis()
        chain.append_payload(b"data", "honest")
        path = tmp_path / "chain.jsonl"
        chain.save(path)
        path.write_text(path.read_text().replace('"honest"', '"\\ud800"'))
        with pytest.raises(ValueError, match=r"line 2: block sender '\\ud800' is not") as e:
            Chain.load(path)
        assert not isinstance(e.value, UnicodeError)

    def test_tampered_file_detected(self, tmp_path):
        chain = Chain.genesis()
        chain.append_payload(b"data", "honest")
        path = tmp_path / "chain.jsonl"
        chain.save(path)
        text = path.read_text().replace("honest", "mallory")
        path.write_text(text)
        assert not Chain.load(path).verify()


class TestTamperEvidence:
    def test_sampled_random_mutations_all_detected(self):
        rnd = random.Random(0)
        chain = Chain.genesis()
        for i in range(200):
            chain.append_payload(b"m%d" % i, "c")
        fields = ["payload_digest", "sender", "prev_hash", "hash"]
        detected = 0
        for _ in range(100):
            victim = Chain([b for b in chain.blocks])
            idx = rnd.randrange(1, len(victim.blocks))
            field = rnd.choice(fields)
            if field in ("payload_digest", "prev_hash", "hash"):
                value = rnd.getrandbits(256).to_bytes(32, "big")
            else:
                value = "m%d" % rnd.getrandbits(16)
            victim.blocks[idx] = dataclasses.replace(victim.blocks[idx], **{field: value})
            if not victim.verify():
                detected += 1
        assert detected == 100
