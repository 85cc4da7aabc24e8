"""Byte-level pins of everything a proof run emits for fixed inputs.

The hashes were taken before statements became int64 vectors and before
the snark inner products moved to a gather over nonzero wires; a change
of representation or of evaluation order must leave every byte alone.
The snark keys at the benchmark's size, m=500, were taken while every
boolean row was still stored as three dicts.  The snark proving keys were
re-pinned when their circuit slot went from the zlib'd circuit JSON to the
circuit's spec; ``snark_pk_tail``, the bytes after that slot, did not move.
"""

import hashlib
import random
from functools import lru_cache

import pytest

from zksplit.backend import MockBackend, Statement, decode_frame
from zksplit.circuit import (
    CircuitConstants,
    build_protocol_circuit,
    generate_witness,
    quantized_aggregate,
    quantized_update,
)
from zksplit.snark import QapSnarkBackend

# under EQUAL every remainder bit is zero; MIXED has nonzero zero-points
# and unequal scales, so some of its remainder bits are set
CONSTANTS = {
    "EQUAL": CircuitConstants(),
    "MIXED": CircuitConstants(f_k=13, z_k=7, f_u=14, z_u=-3, f_up=12, z_up=5,
                              f_w=12, z_w=2, f_wp=11, z_wp=-1),
}
SETUP_SEED = b"pinned-setup"


@lru_cache(maxsize=None)
def instance(name, m):
    """The composed circuit, an honest statement and its witness."""
    c = CONSTANTS[name]
    cs = build_protocol_circuit(m, c)
    rnd = random.Random(f"pinned/{name}/{m}")
    u_q = [rnd.randint(-4000, 4000) for _ in range(m)]
    w_q = [rnd.randint(-4000, 4000) for _ in range(m)]
    k_q = c.z_k + 2 ** c.f_k
    up_q = quantized_aggregate(k_q, u_q, c)
    wit = generate_witness(cs, quantized_update(w_q, up_q, c).tolist() + w_q + [k_q], u_q)
    return cs, Statement(wit.statement(cs)), wit


def spec_slot_tail(pk, cs) -> bytes:
    """The snark proving-key payload after its u32-prefixed spec slot, which
    must hold the circuit's spec.  Before the slot held the spec, it held the
    zlib'd circuit JSON, and the bytes after it hashed the same."""
    payload = decode_frame(pk.to_bytes())[2]
    n = int.from_bytes(payload[:4], "little")
    assert payload[4 : 4 + n] == cs.spec()
    return payload[4 + n :]


def artifacts(name, m):
    """Every pinned byte string of one instance, by artifact name."""
    cs, stmt, wit = instance(name, m)
    mock = MockBackend()
    mock_proof = mock.prove(mock.setup(cs, SETUP_SEED).proving_key, stmt, wit)
    snark = QapSnarkBackend()
    pair = snark.setup(cs, SETUP_SEED)
    snark_proof = snark.prove(pair.proving_key, stmt, wit, rng=random.Random(7))
    return {
        "statement": stmt.to_bytes(),
        "mock_proof": mock_proof.to_bytes(),
        "snark_proof": snark_proof.to_bytes(),
        "snark_pk": pair.proving_key.to_bytes(),
        "snark_pk_tail": spec_slot_tail(pair.proving_key, cs),
        "snark_vk": pair.verifying_key.to_bytes(),
    }


PINNED = {
    ("EQUAL", 1): {
        "statement": "8483bee3b66511ffaf6815dc20154909460cba321a90c36c0166d06869a964d2",
        "mock_proof": "2939d537e95770e735a11b1d93f5895dd429892f14beeeebe5323f96041ca36c",
        "snark_proof": "0d3fd6e274988dd3959d2fe91659d3dd8ff7e09ccba4993cce5bf70e9f6e75e2",
        "snark_pk": "cabece7426ff397909ecf6c8512cb3db6d4bb656d4473b245af2b81fad67fe4c",
        "snark_pk_tail": "fa02c7bc580aeccae7dff355a70990bb7c94e989afc8a9d8bb19adc5e60c68c1",
        "snark_vk": "a5298cdd82c5f1af285f9c0980e15f6eec477c4a4cb9bf59414b6a1fb27ede5e",
    },
    ("EQUAL", 8): {
        "statement": "771c564961336554e2a878a36a78311efdb517aca786b5bbf626373a92d064a8",
        "mock_proof": "bece75348d05e370966b732c1d2078e829a843c9cb7295d65ce29c3ed400f887",
        "snark_proof": "028f8124fb0053a6feebccd7a9ebe7498ff9279b89d7928d5d3581b97df35dca",
        "snark_pk": "acd299a66dbab09b364abeeaf5a863b389ec76a55ac94472612a42a87f8e974b",
        "snark_pk_tail": "d2ada07f3b55bc9107a56f3415dcd8ac2b9d0e1a4655e291c08fecaf3accff40",
        "snark_vk": "04199f2091d84c2f4eea5a95aa1a98af5dbfc9a4e78aff1c50dab4ecd21978da",
    },
    ("EQUAL", 64): {
        "statement": "ce5011082d900bf0e289dc383e80a88b98ac7222c48707e8f2cf9905441112be",
        "mock_proof": "2713de5bb36c0e21bb6d1cf6398603f8308aa27832fdec5cf67f220471e8f627",
        "snark_proof": "7458e4d441a356a06912085b9fc2620ca24399c211ae4de3b4440c8133b44045",
        "snark_pk": "8a12756d774f988b0bfd7c10465d984a09a9a53ebff4535a845240ac3715b9d6",
        "snark_pk_tail": "d0afe1ab5bd2aaed21f38a5b34696427e0f05ad69fb3cfb4cfe123c4a1832100",
        "snark_vk": "c9241e8702df92257d7b3c5bb6ee82e2e29e2d353e9690e0353948b05ab94352",
    },
    ("MIXED", 1): {
        "statement": "dd776faab7efacc78fd4e02b6ce48c725a1419f7695a17d7f21caf871986dc1f",
        "mock_proof": "be40a60e277a0538b0e7b1cacfe1b75fe06f568579eb964e4715ee419565ebb1",
        "snark_proof": "e4655319d84e5e98b0a23c06fc51206294e7a34e2a556924d26a62bbfba9d3b7",
        "snark_pk": "7c58f20df16bcb56d55e0e68271553c9909a5987797dec40f849231588873560",
        "snark_pk_tail": "497b96be968785052f12c2bd6e492695ecb9562492e37afab6a9aa4cdef175d1",
        "snark_vk": "c20e68f1c41bef430f5cc19e8288d2c2eb8e80dfdea0a19ed3554e6b6f64b644",
    },
    ("MIXED", 8): {
        "statement": "ccaf8af9b2df4edd10dec3a8d06d57acb18352721494ae29643be9251d40200a",
        "mock_proof": "09693cde66e9369d4b043a5a054e3e90282e102e67d408c030e83bb8e26b15dd",
        "snark_proof": "2ac4acd126f45a512e4739cc5f49433b29e49625b9c828dc7aa804857e67f9ac",
        "snark_pk": "99720fa9dd5218cd40d35b056f97cf1c26ec31dfeb8f5f195e4486f2cb72386a",
        "snark_pk_tail": "4b4a0520a54edcd5267796281afcd165672c4d457e70f60cf1aef75e56d50686",
        "snark_vk": "090b062b460adb034f700bb426afd55b4c0cef401100563d51d6fdce41fd3f0c",
    },
    ("MIXED", 64): {
        "statement": "0d79cc35d7a70e7bb02e788544a5d29c999236e306294a09548e450817636744",
        "mock_proof": "1e65b3da4f7edc16273ef759d680dd5992e1ebd80fe2c6f9f246de66f5ab1ad5",
        "snark_proof": "0b366d8ee4bf90ce131c5c3006fd024c261401b583511fe7537b690527405b21",
        "snark_pk": "12780554119fa295c005b05cb76d3bb003add1ed0c512e66b488f7a8600c98c9",
        "snark_pk_tail": "db8c3296498355ed1b934d79b4ec049907bffc5f21993aa80bff2076d50a2931",
        "snark_vk": "72d7dc55cc3d7ca431c88c9903156ea897752b4d5146194feb74c961b4150634",
    },
}

CASES = [(name, m) for name in CONSTANTS for m in (1, 8, 64)]


@pytest.mark.parametrize("name,m", CASES)
def test_pinned_artifact_bytes(name, m):
    got = {k: hashlib.sha256(v).hexdigest() for k, v in artifacts(name, m).items()}
    assert got == PINNED[name, m]


# the snark keys of the composed circuit at m=500, as in snark-m500-tamper
PINNED_KEYS = {
    ("EQUAL", 500): {
        "snark_pk": "7e6eb452f1f78fd2b427eadb1ad6d2a565f878917b789375292cf6cd88fa41c5",
        "snark_pk_tail": "dfbc5957f6a2cc3336f1c3fa4689be92ca344a34e79ba0719b3693556151985f",
        "snark_vk": "e2477c10d88af0d5baf9d7e1bce5e33f5b1da4e588a946c498426a2f1f98b880",
    },
}


@pytest.mark.parametrize("name,m", list(PINNED_KEYS))
def test_pinned_snark_keys_at_benchmark_size(name, m):
    cs = build_protocol_circuit(m, CONSTANTS[name])
    pair = QapSnarkBackend().setup(cs, SETUP_SEED)
    got = {"snark_pk": hashlib.sha256(pair.proving_key.to_bytes()).hexdigest(),
           "snark_pk_tail": hashlib.sha256(spec_slot_tail(pair.proving_key, cs)).hexdigest(),
           "snark_vk": hashlib.sha256(pair.verifying_key.to_bytes()).hexdigest()}
    assert got == PINNED_KEYS[name, m]
