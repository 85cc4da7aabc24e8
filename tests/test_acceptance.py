"""Acceptance suite: one test per criterion, each printing a pass line.

Run with output enabled to see the per-criterion lines:

    pytest tests/test_acceptance.py -v -s

Each criterion is checked at its stated tolerance and, where one is given,
its stated runtime budget.  Timing criteria are ordinal (orderings and
trends), never absolute.
"""

import dataclasses
import os
import random
import time
from fractions import Fraction

import numpy as np

from zksplit.backend import MockBackend, Proof, Statement, Verdict
from zksplit.circuit import (
    CircuitConstants,
    InconsistentStatementError,
    build_aggregation_circuit,
    build_protocol_circuit,
    build_update_circuit,
    generate_witness,
    quantized_aggregate,
    quantized_update,
)
from zksplit.config import SimConfig
from zksplit.bench import median_of, run_benchmark
from zksplit.ledger import Chain
from zksplit.nn import (
    Batch,
    client_backward,
    client_forward,
    init_split_model,
    server_step,
)
from zksplit.protocol import Trainer
from zksplit.quant import calibrate, dequantize, quantize
from zksplit.snark import QapSnarkBackend

EQUAL = CircuitConstants()
MIXED = CircuitConstants(f_k=13, z_k=4, f_u=14, z_u=-2, f_up=12, z_up=3,
                         f_w=12, z_w=1, f_wp=11, z_wp=-5)


def _passline(n: int, text: str) -> None:
    print(f"\nPASS [criterion {n}] {text}")


# -- criterion 1: gradient correctness ---------------------------------------


def _toy(seed: int):
    """Toy split model + batch, conditioned for finite differences."""
    shapes = [
        dict(input_dim=6, client_hidden=[7], cut=5, server_hidden=[6], classes=3),
        dict(input_dim=4, client_hidden=[], cut=24, server_hidden=[], classes=3),
        dict(input_dim=3, client_hidden=[], cut=64, server_hidden=[], classes=2),
    ]
    sh = shapes[seed % len(shapes)]
    for attempt in range(60):
        s = seed * 977 + attempt
        rng = np.random.default_rng(s)
        model = init_split_model(sh["input_dim"], sh["client_hidden"], sh["cut"],
                                 sh["server_hidden"], sh["classes"], lr=0.1, seed=s)
        x = rng.normal(0.0, 0.8, size=(4, sh["input_dim"]))
        y = rng.integers(0, sh["classes"], size=4)
        batch = Batch(x=x, y=y)
        a = x
        ok = True
        for stack in (model.client, model.server):
            for W, b, act in zip(stack.weights, stack.biases, stack.activations):
                pre = a @ W + b
                if act == "relu" and np.min(np.abs(pre)) < 1e-3:
                    ok = False
                a = np.maximum(pre, 0) if act == "relu" else pre
        if ok and np.max(np.abs(a)) < 12.0:
            n_params = sum(w.size + b.size for st in (model.client, model.server)
                           for w, b in zip(st.weights, st.biases))
            assert n_params <= 500 and model.cut_width <= 64
            return model, batch
    raise RuntimeError("no conditioned instance found")


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0

    def sum_loss(model, batch):
        sm = client_forward(model.client, batch).smashed
        loss, _, _ = server_step(model.server, sm, batch.y)
        return loss * batch.size

    for seed in range(20):
        model, batch = _toy(seed)
        fwd = client_forward(model.client, batch)
        _, (gw_s, gb_s), grad = server_step(model.server, fwd.smashed, batch.y)
        gw_c, gb_c = client_backward(model.client, fwd, grad)
        for stack, gws, gbs in ((model.server, gw_s, gb_s), (model.client, gw_c, gb_c)):
            for li, (W, b) in enumerate(zip(stack.weights, stack.biases)):
                for arr, g in ((W, gws[li]), (b, gbs[li])):
                    flat, gflat = arr.reshape(-1), np.asarray(g).reshape(-1)
                    for i in range(flat.size):
                        orig = flat[i]
                        flat[i] = orig + h
                        lp = sum_loss(model, batch)
                        flat[i] = orig - h
                        lm = sum_loss(model, batch)
                        flat[i] = orig
                        fd = (lp - lm) / (2 * h)
                        rel = abs(fd - gflat[i]) / max(1e-8, abs(fd) + abs(gflat[i]))
                        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-5, f"worst relative error {worst}"
    assert elapsed < 30.0
    _passline(1, f"gradients match central differences on 20 instances "
                 f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


# -- criterion 2: quantization bounds -----------------------------------------


def test_criterion_2_quantization_bounds():
    t0 = time.perf_counter()
    rnd = random.Random(0)
    calibrations = [(-1.0, 1.0, 0.0), (-4.0, 4.0, 0.0), (0.0, 3.0, 0.01),
                    (-0.25, 0.75, 0.0)]
    for a, b, eps in calibrations:
        p = calibrate(a, b, eps)
        prev_x, prev_q = None, None
        for _ in range(10_000):
            x = rnd.uniform(a, b)
            q = quantize(x, p)
            err = x - dequantize(q, p)
            assert 0.0 <= err < p.scale
            if prev_x is not None and x >= prev_x:
                assert q >= prev_q
            prev_x, prev_q = x, q
        if a <= 0.0 <= b:
            assert dequantize(quantize(0.0, p), p) == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passline(2, f"round-trip bound, zero exactness, monotonicity over "
                 f"4x10^4 samples ({elapsed:.1f}s)")


# -- criteria 3 and 4: circuit completeness and soundness ----------------------


def _honest_agg(rnd, m, c):
    k_q = rnd.randint(c.z_k + 1, 4000)
    u_q = [rnd.randint(-4000, 4000) for _ in range(m)]
    up_q = quantized_aggregate(k_q, u_q, c).tolist()
    cs = build_aggregation_circuit(m, c)
    wit = generate_witness(cs, up_q + [k_q], u_q)
    return cs, wit


def _honest_upd(rnd, m, c):
    w_q = [rnd.randint(-4000, 4000) for _ in range(m)]
    up_q = [rnd.randint(-4000, 4000) for _ in range(m)]
    wp_q = quantized_update(w_q, up_q, c).tolist()
    cs = build_update_circuit(m, c)
    wit = generate_witness(cs, wp_q + w_q, up_q)
    return cs, wit


def test_criterion_3_circuit_completeness():
    t0 = time.perf_counter()
    mock = MockBackend()
    rnd = random.Random(1)
    plan = [(10, 215), (500, 25), (1000, 10)]  # per circuit kind: 500 total
    total = 0
    pairs_cache = {}
    for m, count in plan:
        for kind, gen in (("agg", _honest_agg), ("upd", _honest_upd)):
            cs = None
            for i in range(count):
                c = EQUAL if (i % 2 == 0) else MIXED
                cs, wit = gen(rnd, m, c)
                key = cs.digest()
                if key not in pairs_cache:
                    pairs_cache[key] = mock.setup(cs, b"")
                pair = pairs_cache[key]
                stmt = Statement(wit.statement(cs))
                assert cs.is_satisfied(wit)
                proof = mock.prove(pair.proving_key, stmt, wit)
                assert mock.verify(pair.verifying_key, stmt, proof) is Verdict.ACCEPT
                total += 1
    elapsed_mock = time.perf_counter() - t0
    assert total == 500
    assert elapsed_mock < 60.0

    snark = QapSnarkBackend()
    accepted = 0
    snark_pairs = {}
    rnd2 = random.Random(2)
    snark_plan = [(10, 48), (500, 1), (1000, 1)]
    for m, count in snark_plan:
        for kind, gen in (("agg", _honest_agg), ("upd", _honest_upd)):
            for i in range(count):
                cs, wit = gen(rnd2, m, EQUAL)
                key = cs.digest()
                if key not in snark_pairs:
                    snark_pairs[key] = snark.setup(cs, b"acc3")
                pair = snark_pairs[key]
                stmt = Statement(wit.statement(cs))
                proof = snark.prove(pair.proving_key, stmt, wit)
                accepted += snark.verify(pair.verifying_key, stmt, proof) is Verdict.ACCEPT
    assert accepted == 100
    _passline(3, f"500/500 honest pairs satisfy + Accept (mock, {elapsed_mock:.1f}s); "
                 f"100/100 Accept (snark backend)")


def test_criterion_4_circuit_soundness():
    t0 = time.perf_counter()
    mock = MockBackend()

    def perturbation_rejected(cs, pair, statement, u_q, j, delta):
        """Witness generation must fail, or the proof must be rejected."""
        perturbed = list(u_q)
        perturbed[j] += delta
        try:
            wit = generate_witness(cs, statement, perturbed)
        except (InconsistentStatementError, Exception):
            return True
        try:
            proof = mock.prove(pair.proving_key, Statement(statement), wit)
        except Exception:
            return True
        return mock.verify(pair.verifying_key, Statement(statement), proof) \
            is Verdict.REJECT

    # protocol configuration (n = 1, K dequantizes to 1, equal scales)
    c = EQUAL
    k_q = 2 ** c.f_k
    rnd = random.Random(3)

    # m = 10: exhaustive single-element +-1 sweep
    m = 10
    cs = build_protocol_circuit(m, c)
    pair = mock.setup(cs, b"")
    u_q = [rnd.randint(-2000, 2000) for _ in range(m)]
    w_q = [rnd.randint(-2000, 2000) for _ in range(m)]
    up_q = quantized_aggregate(k_q, u_q, c)
    wp_q = quantized_update(w_q, up_q, c).tolist()
    statement = wp_q + w_q + [k_q]
    honest = generate_witness(cs, statement, u_q)
    assert cs.is_satisfied(honest)
    rejected = 0
    trials = 0
    for j in range(m):
        for delta in (+1, -1):
            trials += 1
            rejected += perturbation_rejected(cs, pair, statement, u_q, j, delta)
    assert rejected == trials == 2 * m

    # m = 1000: 200 sampled perturbations
    m = 1000
    cs_big = build_protocol_circuit(m, c)
    pair_big = mock.setup(cs_big, b"")
    u_q = [rnd.randint(-2000, 2000) for _ in range(m)]
    w_q = [rnd.randint(-2000, 2000) for _ in range(m)]
    up_q = quantized_aggregate(k_q, u_q, c)
    wp_q = quantized_update(w_q, up_q, c).tolist()
    statement = wp_q + w_q + [k_q]
    sampled = 0
    for _ in range(200):
        j = rnd.randrange(m)
        delta = rnd.choice((+1, -1))
        sampled += perturbation_rejected(cs_big, pair_big, statement, u_q, j, delta)
    elapsed = time.perf_counter() - t0
    assert sampled == 200
    assert elapsed < 60.0
    _passline(4, f"20/20 exhaustive (m=10) and 200/200 sampled (m=1000) "
                 f"perturbations rejected ({elapsed:.1f}s)")


# -- criterion 5: oracle equivalence ------------------------------------------


def test_criterion_5_oracle_equivalence():
    rnd = random.Random(4)
    mock = MockBackend()
    for trial in range(100):
        # random scale/zero-point configuration meeting the exactness rules;
        # values bounded so every derived output stays in the 16-bit budget
        f_k = rnd.randint(11, 14)
        f_u = rnd.randint(11, 14)
        f_up = rnd.randint(11, 14)
        f_w = rnd.randint(11, 14)
        f_wp = rnd.randint(11, 14)
        c = CircuitConstants(
            f_k=f_k, z_k=rnd.randint(-3, 3), f_u=f_u, z_u=rnd.randint(-3, 3),
            f_up=f_up, z_up=rnd.randint(-3, 3), f_w=f_w, z_w=rnd.randint(-3, 3),
            f_wp=f_wp, z_wp=rnd.randint(-3, 3),
        )
        m = rnd.randint(1, 8)
        k_q = rnd.randint(c.z_k + 1, c.z_k + 2 ** f_k)  # dequantizes to (0, 1]
        u_q = [c.z_u + rnd.randint(-1000, 1000) for _ in range(m)]
        w_q = [c.z_w + rnd.randint(-1000, 1000) for _ in range(m)]
        up_q = quantized_aggregate(k_q, u_q, c)
        wp_q = quantized_update(w_q, up_q, c).tolist()

        # the proven statement must actually verify
        cs = build_protocol_circuit(m, c)
        wit = generate_witness(cs, wp_q + w_q + [k_q], u_q)
        pair = mock.setup(cs, b"")
        stmt = Statement(wit.statement(cs))
        proof = mock.prove(pair.proving_key, stmt, wit)
        assert mock.verify(pair.verifying_key, stmt, proof) is Verdict.ACCEPT

        # exact-rational brute force of K*U and W + U'
        sk, su = Fraction(1, 2 ** c.f_k), Fraction(1, 2 ** c.f_u)
        sup, sw = Fraction(1, 2 ** c.f_up), Fraction(1, 2 ** c.f_w)
        swp = Fraction(1, 2 ** c.f_wp)
        for j in range(m):
            exact_prod = sk * (k_q - c.z_k) * su * (u_q[j] - c.z_u)
            deq_up = sup * (up_q[j] - c.z_up)
            assert abs(deq_up - exact_prod) < sup
            exact_sum = sw * (w_q[j] - c.z_w) + deq_up
            deq_wp = swp * (wp_q[j] - c.z_wp)
            assert abs(deq_wp - exact_sum) < swp
    _passline(5, "100/100 proven outputs within one quantization step of "
                 "exact-rational K*U and W + U'")


# -- criterion 6: protocol integrity -------------------------------------------


def test_criterion_6_protocol_integrity():
    # one fixed batch per client makes every round full-batch descent, so
    # the training loss decreases structurally rather than by seed luck
    base = dict(mode="zk-mock", num_clients=2, m=32, rounds=5, seed=0,
                lr=0.05, samples_per_client=32, batch_size=32,
                blob_spread=2.0, blob_noise=1.0)
    honest = Trainer(SimConfig(**base))
    reports = honest.train()
    assert all(v == "Accepted" for r in reports for v in r.verdicts.values())
    losses = [r.loss for r in reports]
    assert all(a > b for a, b in zip(losses, losses[1:])), losses

    tampered = Trainer(SimConfig(**{**base, "tamper_clients": [1]}))
    t_reports = tampered.train()
    assert all(r.verdicts[1] == "RejectedProof" for r in t_reports)
    solo = Trainer(SimConfig(**{**base, "num_clients": 1, "data_partitions": 2}))
    solo.train()

    def arrays(tr):
        for stack in (tr.model.client, tr.model.server):
            yield from stack.weights
            yield from stack.biases

    assert all(np.array_equal(a, b) for a, b in zip(arrays(tampered), arrays(solo)))
    _passline(6, f"all verdicts Accepted, loss fell {losses[0]:.3f} -> {losses[-1]:.3f}; "
                 "tampering client rejected every round with bit-identical containment")


# -- criterion 7: ledger tamper evidence ---------------------------------------


def test_criterion_7_ledger_tamper_evidence():
    t0 = time.perf_counter()
    chain = Chain.genesis()
    for i in range(1000):
        chain.append_payload(b"update-%d" % i, f"client-{i % 4}")
    assert chain.verify()
    rnd = random.Random(5)
    fields = ["payload_digest", "sender", "prev_hash", "hash", "index"]
    detected = 0
    for _ in range(100):
        victim = Chain(list(chain.blocks))
        idx = rnd.randrange(1, len(victim.blocks))
        field = rnd.choice(fields)
        if field in ("payload_digest", "prev_hash", "hash"):
            value = rnd.getrandbits(256).to_bytes(32, "big")
        elif field == "index":
            value = rnd.getrandbits(40) + 10**13
        else:
            value = "forged-%d" % rnd.getrandbits(16)
        victim.blocks[idx] = dataclasses.replace(victim.blocks[idx], **{field: value})
        detected += not victim.verify()
    elapsed = time.perf_counter() - t0
    assert detected == 100
    assert elapsed < 5.0
    _passline(7, f"100/100 single mutations of a 1000-block chain detected "
                 f"({elapsed:.1f}s)")


# -- criterion 8: trend reproduction -------------------------------------------


def test_criterion_8_bench_trends():
    t0 = time.perf_counter()
    clients_grid = [1, 2, 4, 8, 16]
    m_grid = [500, 700, 1000]
    cfg = SimConfig(
        mode="zk-mock", seed=11, reps=9,
        client_grid=clients_grid, m_grid=m_grid,
        mode_grid=["zk-mock", "blockchain", "none"],
        batches_per_epoch=8, m=500,
        real_epoch_clients=[1, 8], real_epoch_batches=8,
    )
    many_threads = (os.cpu_count() or 1) >= 8
    records = run_benchmark(cfg, include_real_epoch=many_threads)

    # (a) median proof_time non-decreasing in m at fixed clients.  Per-client
    # proof work does not depend on fleet size in the sequential relay, so the
    # client cells at one m are replicates of the same work; the median at any
    # fixed clients value is computed over the pooled replicates, which span
    # the whole interleaved run and damp machine-load bursts.
    pooled = {
        m: float(np.median([r.value for r in records
                            if r.metric == "proof_time" and r.m == m]))
        for m in m_grid
    }
    for c in clients_grid:
        per_cell = [median_of(records, "proof_time", "zk-mock", c, m) for m in m_grid]
        assert all(v is not None for v in per_cell)
        meds = [pooled[m] for m in m_grid]
        assert meds[0] <= meds[1] <= meds[2], meds

    # (b) batch_time ordering zk > blockchain > none at every cell
    for c in clients_grid:
        for m in m_grid:
            zk = median_of(records, "batch_time", "zk-mock", c, m)
            bc = median_of(records, "batch_time", "blockchain", c, m)
            no = median_of(records, "batch_time", "none", c, m)
            assert zk > bc > no, (c, m, zk, bc, no)

    # (c) blockchain batch_time varies < 25% across client counts
    for m in m_grid:
        meds = [median_of(records, "batch_time", "blockchain", c, m)
                for c in clients_grid]
        spread = (max(meds) - min(meds)) / min(meds)
        assert spread < 0.25, (m, meds, spread)

    # (d) real_epoch(8 clients) <= real_epoch(1 client) at fixed total work;
    # applicable only on a machine with >= 8 hardware threads
    if many_threads:
        r1 = median_of(records, "real_epoch", "zk-mock", 1, 500)
        r8 = median_of(records, "real_epoch", "zk-mock", 8, 500)
        assert r8 <= r1, (r1, r8)
        d_note = f"(d) real_epoch 8c {r8:.2f}s <= 1c {r1:.2f}s"
    else:
        d_note = f"(d) skipped: {os.cpu_count()} hardware threads < 8"

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    _passline(8, f"(a) proof_time monotone in m, (b) zk > blockchain > none at "
                 f"all 15 cells, (c) blockchain spread < 25%, {d_note} "
                 f"({elapsed:.0f}s)")


# -- criterion 9: backend conformance ------------------------------------------


def test_criterion_9_backend_conformance():
    rnd = random.Random(6)
    backends = [MockBackend(), QapSnarkBackend()]

    def vector_verdict(be, cs, wit, tamper):
        pair = be.setup(cs, b"conf")
        stmt = Statement(wit.statement(cs))
        proof = be.prove(pair.proving_key, stmt, wit)
        if tamper == "honest":
            return be.verify(pair.verifying_key, stmt, proof)
        if tamper == "statement":
            bad = Statement([stmt.values[0] + 1] + list(stmt.values[1:]))
            return be.verify(pair.verifying_key, bad, proof)
        if tamper == "proof-bytes":
            raw = bytearray(proof.to_bytes())
            raw[len(raw) // 2] ^= 0x10
            try:
                mutated = Proof.from_bytes(bytes(raw))
            except Exception:
                return Verdict.REJECT
            return be.verify(pair.verifying_key, stmt, mutated)
        if tamper == "cross-circuit":
            other = build_update_circuit(cs.m + 1, cs.constants)
            other_pair = be.setup(other, b"conf")
            return be.verify(other_pair.verifying_key, stmt, proof)
        raise AssertionError(tamper)

    checked = 0
    for seed in range(10):
        for kind, gen in (("agg", _honest_agg), ("upd", _honest_upd)):
            c = EQUAL if seed % 2 == 0 else MIXED
            cs, wit = gen(rnd, 4, c)
            for tamper in ("honest", "statement", "proof-bytes", "cross-circuit"):
                va = vector_verdict(backends[0], cs, wit, tamper)
                vb = vector_verdict(backends[1], cs, wit, tamper)
                assert va == vb, (kind, tamper, va, vb)
                expected = Verdict.ACCEPT if tamper == "honest" else Verdict.REJECT
                assert va is expected
                checked += 1
    assert checked == 80
    _passline(9, f"mock and snark backends agree on all {checked} corpus vectors")
