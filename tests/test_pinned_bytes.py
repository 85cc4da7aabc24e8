"""Byte-level pins of everything a proof run emits for fixed inputs.

The hashes were taken before statements became int64 vectors and before
the snark inner products moved to a gather over nonzero wires; a change
of representation or of evaluation order must leave every byte alone.
The snark keys at the benchmark's size, m=500, were taken while every
boolean row was still stored as three dicts.  The snark proving keys were
re-pinned when their circuit slot went from the zlib'd circuit JSON to the
circuit's spec; ``snark_pk_tail``, the bytes after that slot, did not move.
Every other pin moved again when statements and witnesses went to the
width-byte frame of WIRE_VERSION 2: rewriting the version byte and those
frames back in the form of version 1 gave bytes that hash to the pins of
version 1, so only the encoding changed.

``PINNED`` and ``PINNED_KEYS`` hold the pins of WIRE_VERSION 2.  Version 3
sends a witness's trailing run of bits as a bit tail, and every frame
carries the version byte, so the mock proofs, snark proofs and snark keys
moved again; their version 3 hashes are pinned beside the old ones.  The
old pins stay as an oracle: writing version byte 2 back and re-encoding the
mock proof's witness frame plain (``version_2``) must give bytes that hash
to them.  Statements end with K, so their frames have no tail, and neither
they nor the snark key tails moved.
"""

import hashlib
import random
from functools import lru_cache

import pytest

from zksplit.backend import MockBackend, Statement, decode_frame
from zksplit.circuit import (
    CircuitConstants,
    Witness,
    _write_elements,
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


@lru_cache(maxsize=None)
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
        "statement": "15232c38cf482a7962595579350ee2d0aef1bfc18b994111444737d042ad2540",
        "mock_proof": "86696c2144de156fba801b8eb3bc94c3349dccde7c5f8923fb82aa14f2ca7822",
        "snark_proof": "79158d33e63ecda3f3a19632f5cdc2b2a2fa792057a53decf751641dca234e01",
        "snark_pk": "050e1fc0c22415fa6d54df328d3466ebf26f7f9d781af3f542bad2f02b46d686",
        "snark_pk_tail": "fa02c7bc580aeccae7dff355a70990bb7c94e989afc8a9d8bb19adc5e60c68c1",
        "snark_vk": "d3a9c0ab05670acd37c7b71805931afe54eafc8aca2c1afea28c67cd5d1f43df",
    },
    ("EQUAL", 8): {
        "statement": "2fc7d1ab12c1f660515ce439e1dba313c6b3eac71d4210b4f040d8a5667416b5",
        "mock_proof": "bd798b7b26b8942cacb5ccd4c174ba610c68e37936bfff44179a87f64f9238fd",
        "snark_proof": "1046a2a0bebc935115d492826eaf2eb9e619ca05e14c884a9b75d9cdb1c04d54",
        "snark_pk": "14e12cdc995974a9174fcc68def168e9ee2b8035523cf178f6669b2fc6fee575",
        "snark_pk_tail": "d2ada07f3b55bc9107a56f3415dcd8ac2b9d0e1a4655e291c08fecaf3accff40",
        "snark_vk": "dcfb468925eb9c62840ad5d627cbbd83e3e74028ddd7b873d0cba5a96ce027bd",
    },
    ("EQUAL", 64): {
        "statement": "6a7c12a53cb3fb144482d187e5a9c1f74f4dae4408f7671312a10c7572bd469b",
        "mock_proof": "eef604e1305222dcb2c690ba3e7e58127f90362ea9b7f0fb415d6aa14f216a26",
        "snark_proof": "7373efd7ecf352c00203a8c8f4abc6fb8e99ccf4c6dc07bc0824bfe4b9298b75",
        "snark_pk": "6dbfe7362be9dc35504fccbcea8805db3188453a610c36dc3d0eb0816348ffb2",
        "snark_pk_tail": "d0afe1ab5bd2aaed21f38a5b34696427e0f05ad69fb3cfb4cfe123c4a1832100",
        "snark_vk": "2883eb9774ea9098b0fcba6b620b64b71e38fe34f3f4e8cb63049ce827da00e7",
    },
    ("MIXED", 1): {
        "statement": "bcc2c5692c0b01d2d3e628e16d8f444b6e56fb026e270ef708353c7f88085a4e",
        "mock_proof": "be830404b3e64820b77f48f7722ca19a4574471a0c78874869be0f2548a57165",
        "snark_proof": "34858e111c0481e1f6d7d786374470f75e4a5dc34338f51493f04b3a3c37f58f",
        "snark_pk": "3d5855d23330d802254b3f96c94f33e3e2082c6f1d328984c98cbebc962653bc",
        "snark_pk_tail": "497b96be968785052f12c2bd6e492695ecb9562492e37afab6a9aa4cdef175d1",
        "snark_vk": "b4395afb2c31a3d0e49be116e6a7c75c2ca65dbecdf89cb3fee481266deb3727",
    },
    ("MIXED", 8): {
        "statement": "619f85d86df3667e93958649903e4c44a9e9d20a304403e889a800c8a8d017fe",
        "mock_proof": "07be9b1e7ef4ec2e2bb6fcd59b6f79b1ec197f060a96e245f639d8a4679001f8",
        "snark_proof": "dd9634000da2585ccac0aeef7968176da6e02b7a221a40e089b88fae8c5a920c",
        "snark_pk": "4b5e3b1d13b42a4fe9367a3c258b5e05b814d6fd8697f6ef89e9538afcbe9969",
        "snark_pk_tail": "4b4a0520a54edcd5267796281afcd165672c4d457e70f60cf1aef75e56d50686",
        "snark_vk": "8cc5ec845c7cca36f3dbf95a6abb08db180251bed598f98403a9ff0f3157b208",
    },
    ("MIXED", 64): {
        "statement": "6be39fa3aeabd0a20565b73c6d3fcf9252e181fd32a518ebefe1f0df146f737b",
        "mock_proof": "9086d9ef8977e51feda3687dce8966b24cd6875d9abdb43c9a1a5e5dc849c7c8",
        "snark_proof": "db918d57c8cd1172ca0c13d42fc5a0960c0860706331b2dac7c5992f0456aa11",
        "snark_pk": "0725c6a8cf09f28f601057900112757a184dd88453b6347f6abeeaa06f006e70",
        "snark_pk_tail": "db8c3296498355ed1b934d79b4ec049907bffc5f21993aa80bff2076d50a2931",
        "snark_vk": "8b6218b2a5f9ae5a75abe60a633aec37cd335c629713e599f7c8f2b27a2bfc24",
    },
}

CASES = [(name, m) for name in CONSTANTS for m in (1, 8, 64)]


# the hashes of version 3 that differ from the version 2 pins above
PINNED_V3 = {
    ('EQUAL', 1): {
        "mock_proof": "b5eea77923850cb60cd8c7e1eda2a2e719ec3791b6e8a4708a624177c994672a",
        "snark_proof": "a58e8d1b86e319bd036a80b7effb7caf06206c40d9506046dee81be1e3829ae4",
        "snark_pk": "880576fd5754d56ff2690f15786d4ef86b342849993615a46a1e266ceeb5cacf",
        "snark_vk": "fc815530a59c487081226694127f3cec466354ae26730c1a864cb10098a32e2c",
    },
    ('EQUAL', 8): {
        "mock_proof": "a441465f5bf13c0b11b1b3367deb51cf6bc0ff865f2463b6a9b672da40011b32",
        "snark_proof": "92878557a23bfe43110cd11db74e3d5fa154ca5e64535417f2233db21493ce26",
        "snark_pk": "fe5bd05f4e5c9765d2ae0c7b3b4ae2b3e3a268b5a45853e7e630c0a5cffe82cc",
        "snark_vk": "21beef7337078b3ccb3955991b2941988c86d014bb21f3d23c890255946b04c9",
    },
    ('EQUAL', 64): {
        "mock_proof": "f15543453ce8dae4b3dc63327542cc5dcfd8a7490ae1b16d2f9ca7d0eeca8872",
        "snark_proof": "4523bac9d80896e3413a77d56b0cf986bcddefca3c27b3916821d49ca622f571",
        "snark_pk": "389d52de894e0ccc9cfbac55c5bec3391155907cdef89b396cca670ab375c76c",
        "snark_vk": "9be25c22f1340505fcabfe93de22cb1dfb6e8e47f7852a5a8b5aa9e433fb1e07",
    },
    ('MIXED', 1): {
        "mock_proof": "1af440e0cb336eb2867bf8602d0c2ff48e55a67f97caefabb76ee805b5844950",
        "snark_proof": "d400f11951698cf808898680a14117afb6c61296b0a9ed5bfef580fc8f0ca7a1",
        "snark_pk": "0f990006847e08bfd3f63d264718292f468f3ffcd27c10af11f94b395c995392",
        "snark_vk": "2e53b73c92f97cd973434f42afebab3eefd6f97eb9609b669c04a2eddb4eb647",
    },
    ('MIXED', 8): {
        "mock_proof": "8030991464fc6cf4827031b7189c79c3cf449a1850f428a4a49a0a8706f862ef",
        "snark_proof": "21e1485cd0e6e3890b2ff33b7cd837a2a2a34334ecde690b9aa10ca85a96ef33",
        "snark_pk": "7f24dda26087219e4e811ba91354e81c12ab0c84ebb5ef64b823e6d4cd2a876a",
        "snark_vk": "2a7d4ac5cb0c324f3d7ee057e3d0ec898fa9ade32daa0aba6199248ddfe2f6d1",
    },
    ('MIXED', 64): {
        "mock_proof": "79d6941d9baf2f2d3c1449f6d515505b90ddfa562bc183ce2edd905e75df241b",
        "snark_proof": "657637c5197e828df08b28e86af52a2d2642dee0664aeeeaf769ac0f1716c26a",
        "snark_pk": "200bee072f5adaf5e197a2e11cd891689048bd13f41194fcec64142909f1d0ce",
        "snark_vk": "4a5c22d34bfe38ef13e7a02d025209a498cbc8c50475fa37e2cd4fcb20fd39c8",
    },
}


def plain_frame(vec) -> bytes:
    """The frame of the vector as version 2 wrote it: the width byte, the
    count and every element at the width, with no bit tail."""
    width, s = vec.to_bytes()[0] % 128, vec.signed
    body = _write_elements(s.tolist()) if width == 32 else s.astype(f"<i{width}").tobytes()
    return bytes([width]) + len(s).to_bytes(4, "little") + body


def version_2(name, data: bytes) -> bytes:
    """The artifact as version 2 wrote it: its version byte 2, and a mock
    proof's witness frame, after the 66 header bytes, plain."""
    if name in ("statement", "snark_pk_tail"):
        return data
    if name == "mock_proof":
        data = data[:66] + plain_frame(Witness.from_bytes(data[66:]))
    return bytes([2]) + data[1:]


def hashes(named: dict, version: int = 3) -> dict:
    return {k: hashlib.sha256(v if version == 3 else version_2(k, v)).hexdigest()
            for k, v in named.items()}


@pytest.mark.parametrize("name,m", CASES)
def test_pinned_artifact_bytes(name, m):
    assert hashes(artifacts(name, m)) == {**PINNED[name, m], **PINNED_V3[name, m]}
    assert hashes(artifacts(name, m), version=2) == PINNED[name, m]


# the snark keys of the composed circuit at m=500, as in snark-m500-tamper
PINNED_KEYS = {
    ("EQUAL", 500): {
        "snark_pk": "c48ea279cfd1c10113f4664b3cdf786fe07051a59fb38c37341d8c68b9667aa2",
        "snark_pk_tail": "dfbc5957f6a2cc3336f1c3fa4689be92ca344a34e79ba0719b3693556151985f",
        "snark_vk": "c5c7777adce38c9c3bfe5aadb899ad8c427d387b539613e9c04a876532f12ba3",
    },
    # taken while set-up still walked the rows over barycentric Lagrange
    # values; MIXED's nonzero zero-points put terms on wire 0 in every row
    ("MIXED", 500): {
        "snark_pk": "be5b599413b8851e0d7fb9f6df3cee71e3e6a28586138e21879db40c4733633a",
        "snark_pk_tail": "72e83514bd629370394345e1c635c7a1bce1233ca86739ed69f7455ed597c855",
        "snark_vk": "bafb1498f64e7c7ca0e90c8069f9b0c927a85a820de05a4e7c61556ed4d33719",
    },
}


# the hashes of version 3 that differ from the version 2 pins above
PINNED_KEYS_V3 = {
    ('EQUAL', 500): {
        "snark_pk": "43b3a2eb6f559b460f07e60ca87a8edbd328315cd6754a9fb934f68391420c44",
        "snark_vk": "218d613f8df11d088f77318c071a0dc06937f31f09611758806e8b569fdcc3a4",
    },
    ('MIXED', 500): {
        "snark_pk": "fb52343de4845a0358f7490a0d79b4122ba9ea6bc30950b12e4869ce1e8e02c5",
        "snark_vk": "2cff287804fe0817fabb262590d359d60f5cfbc074f2d1f188657146028b0bf8",
    },
}


@pytest.mark.parametrize("name,m", list(PINNED_KEYS))
def test_pinned_snark_keys_at_benchmark_size(name, m):
    cs = build_protocol_circuit(m, CONSTANTS[name])
    pair = QapSnarkBackend().setup(cs, SETUP_SEED)
    keys = {"snark_pk": pair.proving_key.to_bytes(),
            "snark_pk_tail": spec_slot_tail(pair.proving_key, cs),
            "snark_vk": pair.verifying_key.to_bytes()}
    assert hashes(keys) == {**PINNED_KEYS[name, m], **PINNED_KEYS_V3[name, m]}
    assert hashes(keys, version=2) == PINNED_KEYS[name, m]


# the composed circuit's digest at the benchmark's sizes, taken while the
# builders still added every row one element at a time and the writer
# formatted each row; at m=1000 the wire indices pass 10 000 inside one
# element's bank of bits
PINNED_CIRCUIT_DIGESTS = {
    ("EQUAL", 500): "0580c8629769b2df0547da84a145c79c6ce853d2218b419ce0a0de0129e99bd0",
    ("EQUAL", 1000): "1c77bf2751fd4a6e49c51dbc7e82111d3ca7cf561c4bceee8e600a6d2fda0416",
    ("MIXED", 500): "e6c4fb81a047343e49aae1d2f20baa30d8a33dc46f6f62148a4913482b7d0d9b",
    ("MIXED", 1000): "863f9fa6bb125d09626b20fb303195fb4f3310b32391659d63fcffd71b5c19f6",
}


@pytest.mark.parametrize("name,m", list(PINNED_CIRCUIT_DIGESTS))
def test_pinned_circuit_digest_at_benchmark_sizes(name, m):
    assert build_protocol_circuit(m, CONSTANTS[name]).digest() == PINNED_CIRCUIT_DIGESTS[name, m]
