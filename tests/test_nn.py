import math

import numpy as np
import pytest

from zksplit.nn import (
    Batch,
    DenseStack,
    GradientBatch,
    NumericError,
    ShapeError,
    SplitModel,
    batch_stream,
    client_backward,
    client_forward,
    init_split_model,
    load_checkpoint,
    make_blobs,
    partition_iid,
    save_checkpoint,
    server_loss,
    server_step,
    sgd_step,
)

H = 1e-5
REL_TOL = 1e-5


def naive_forward(stack: DenseStack, x: np.ndarray) -> np.ndarray:
    """Straight-line triple-loop re-implementation used as an oracle."""
    rows = []
    for r in range(x.shape[0]):
        a = [float(v) for v in x[r]]
        for W, b, act in zip(stack.weights, stack.biases, stack.activations):
            nxt = []
            for j in range(W.shape[1]):
                s = float(b[j])
                for i in range(len(a)):
                    s += a[i] * float(W[i, j])
                nxt.append(max(s, 0.0) if act == "relu" else s)
            a = nxt
        rows.append(a)
    return np.array(rows)


def sum_loss(model: SplitModel, batch: Batch) -> float:
    """FD oracle target: gradients returned by the API are batch sums."""
    sm = client_forward(model.client, batch)
    loss, _, _ = server_step(model.server, sm, batch.y)
    return loss * batch.size


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def toy_instance(seed: int, input_dim=6, cut=5, classes=3, batch=4,
                 client_hidden=(7,), server_hidden=(6,)):
    """Random toy model+batch conditioned for finite differences.

    Inputs are O(1) so the softmax stays unsaturated, and instances where
    a ReLU pre-activation sits near its kink are re-drawn.
    """
    for attempt in range(50):
        rng = np.random.default_rng(seed * 100 + attempt)
        model = init_split_model(input_dim, list(client_hidden), cut,
                                 list(server_hidden), classes, lr=0.1,
                                 seed=seed * 100 + attempt)
        x = rng.normal(0.0, 0.8, size=(batch, input_dim))
        y = rng.integers(0, classes, size=batch)
        b = Batch(x=x, y=y)
        ok = True
        a = b.x
        for stack in (model.client, model.server):
            for W, bias, act in zip(stack.weights, stack.biases, stack.activations):
                pre = a @ W + bias
                if act == "relu" and np.min(np.abs(pre)) < 1e-3:
                    ok = False
                a = np.maximum(pre, 0) if act == "relu" else pre
        if ok and np.max(np.abs(a)) < 12.0:  # keep the softmax unsaturated
            return model, b
    raise RuntimeError("could not build a kink-free toy instance")


def fd_check_all_params(model: SplitModel, batch: Batch) -> float:
    """Central finite differences against every parameter coordinate."""
    sm = client_forward(model.client, batch)
    _, (gw_s, gb_s), grad = server_step(model.server, sm, batch.y)
    gw_c, gb_c = client_backward(model.client, batch, grad)
    worst = 0.0
    for stack, gws, gbs in ((model.server, gw_s, gb_s), (model.client, gw_c, gb_c)):
        for li, (W, b) in enumerate(zip(stack.weights, stack.biases)):
            for arr, g in ((W, gws[li]), (b, gbs[li])):
                flat = arr.reshape(-1)
                gflat = np.asarray(g).reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + H
                    lp = sum_loss(model, batch)
                    flat[i] = orig - H
                    lm = sum_loss(model, batch)
                    flat[i] = orig
                    worst = max(worst, relative_error((lp - lm) / (2 * H), gflat[i]))
    return worst


class TestClientForward:
    def test_zero_parameters_give_zero_output(self):
        st = DenseStack([np.zeros((4, 3))], [np.zeros(3)], ["linear"])
        z = client_forward(st, Batch(x=np.ones((5, 4)), y=np.zeros(5, dtype=int))).z
        assert np.all(z == 0.0)

    def test_identity_client_passes_input_through(self):
        st = DenseStack([np.eye(4)], [np.zeros(4)], ["linear"])
        x = np.random.default_rng(0).normal(size=(6, 4))
        z = client_forward(st, Batch(x=x, y=np.zeros(6, dtype=int))).z
        assert np.array_equal(z, x)

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(1)
        st = DenseStack(
            [rng.normal(size=(5, 7)), rng.normal(size=(7, 4))],
            [rng.normal(size=7), rng.normal(size=4)],
            ["relu", "linear"],
        )
        x = rng.normal(size=(8, 5))
        z = client_forward(st, Batch(x=x, y=np.zeros(8, dtype=int))).z
        ref = naive_forward(st, x)
        assert np.max(np.abs(z - ref) / np.maximum(1e-12, np.abs(ref))) < 1e-12

    def test_shape_mismatch(self):
        st = DenseStack([np.eye(4)], [np.zeros(4)], ["linear"])
        with pytest.raises(ShapeError):
            client_forward(st, Batch(x=np.ones((2, 3)), y=np.zeros(2, dtype=int)))


class TestServerStep:
    def test_uniform_logits_loss_is_log_c(self):
        for classes in (2, 3, 10):
            st = DenseStack([np.zeros((4, classes))], [np.zeros(classes)], ["linear"])
            from zksplit.nn import SmashedBatch

            sm = SmashedBatch(z=np.random.default_rng(0).normal(size=(6, 4)))
            y = np.random.default_rng(1).integers(0, classes, size=6)
            loss, _, _ = server_step(st, sm, y)
            assert abs(loss - math.log(classes)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_loss_without_gradients_is_bit_identical(self, seed):
        model, batch = toy_instance(seed)
        sm = client_forward(model.client, batch)
        loss, probs, _, _ = server_loss(model.server, sm, batch.y)
        step_loss, _, grad = server_step(model.server, sm, batch.y)
        assert loss == step_loss == grad.loss
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        model, batch = toy_instance(0)
        sm = client_forward(model.client, batch)
        logits = sm.z @ model.server.weights[0] + model.server.biases[0]
        logits = np.maximum(logits, 0) @ model.server.weights[1] + model.server.biases[1]
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        model, batch = toy_instance(1)
        assert fd_check_all_params(model, batch) < REL_TOL

    def test_g_z_matches_finite_differences(self):
        model, batch = toy_instance(2)
        sm = client_forward(model.client, batch)
        _, _, grad = server_step(model.server, sm, batch.y)
        worst = 0.0
        for r in range(sm.z.shape[0]):
            for c in range(sm.z.shape[1]):
                zp = sm.z.copy()
                zp[r, c] += H
                lp, _, _ = server_step(model.server, type(sm)(z=zp), batch.y)
                zm = sm.z.copy()
                zm[r, c] -= H
                lm, _, _ = server_step(model.server, type(sm)(z=zm), batch.y)
                fd = (lp - lm) * batch.size / (2 * H)
                worst = max(worst, relative_error(fd, grad.g_z[r, c]))
        assert worst < REL_TOL

    def test_numeric_blowup(self):
        st = DenseStack([np.full((2, 2), 1e308)], [np.zeros(2)], ["linear"])
        from zksplit.nn import SmashedBatch

        with pytest.raises(NumericError, match="numeric blowup"):
            server_step(st, SmashedBatch(z=np.full((1, 2), 1e308)), np.zeros(1, dtype=int))


class TestClientBackward:
    def test_zero_upstream_gradient(self):
        model, batch = toy_instance(3)
        grad = GradientBatch(g_z=np.zeros((batch.size, model.cut_width)), loss=0.0)
        gw, gb = client_backward(model.client, batch, grad)
        assert all(np.all(g == 0) for g in gw) and all(np.all(g == 0) for g in gb)

    def test_linearity_in_upstream_gradient(self):
        # linear activations make backward exactly linear in g_z
        rng = np.random.default_rng(5)
        st = DenseStack([rng.normal(size=(4, 3))], [rng.normal(size=3)], ["linear"])
        batch = Batch(x=rng.normal(size=(5, 4)), y=np.zeros(5, dtype=int))
        g = rng.normal(size=(5, 3))
        gw1, gb1 = client_backward(st, batch, GradientBatch(g_z=g, loss=0.0))
        gw2, gb2 = client_backward(st, batch, GradientBatch(g_z=2 * g, loss=0.0))
        assert np.allclose(2 * gw1[0], gw2[0]) and np.allclose(2 * gb1[0], gb2[0])

    def test_gradient_shape_check(self):
        model, batch = toy_instance(4)
        with pytest.raises(ShapeError):
            client_backward(model.client, batch,
                            GradientBatch(g_z=np.zeros((batch.size, 999)), loss=0.0))


class TestSgdStep:
    def test_zero_gradient_fixed_point(self):
        model, _ = toy_instance(6)
        zeros = ([np.zeros_like(w) for w in model.client.weights],
                 [np.zeros_like(b) for b in model.client.biases])
        updated = sgd_step(model.client, zeros, lr=0.5, batch_size=4)
        assert all(np.array_equal(a, b) for a, b in zip(updated.weights, model.client.weights))

    def test_scalar_formula(self):
        st = DenseStack([np.array([[1.0]])], [np.zeros(1)], ["linear"])
        out = sgd_step(st, ([np.array([[2.0]])], [np.zeros(1)]), lr=0.5, batch_size=1)
        assert out.weights[0][0, 0] == 0.0

    def test_two_half_steps_equal_one_double_step(self):
        rng = np.random.default_rng(8)
        st = DenseStack([rng.normal(size=(3, 2))], [rng.normal(size=2)], ["linear"])
        g = ([rng.normal(size=(3, 2))], [rng.normal(size=2)])
        twice = sgd_step(sgd_step(st, g, 0.1, 4), g, 0.1, 4)
        once = sgd_step(st, g, 0.2, 4)
        assert np.allclose(twice.weights[0], once.weights[0])
        assert np.allclose(twice.biases[0], once.biases[0])

    def test_input_not_mutated(self):
        st = DenseStack([np.ones((2, 2))], [np.ones(2)], ["linear"])
        before = st.weights[0].copy()
        sgd_step(st, ([np.ones((2, 2))], [np.ones(2)]), 0.1, 1)
        assert np.array_equal(st.weights[0], before)


class TestTrainingBehavior:
    def test_fd_on_twenty_random_instances(self):
        worst = 0.0
        for seed in range(20):
            model, batch = toy_instance(seed + 10)
            worst = max(worst, fd_check_all_params(model, batch))
        assert worst < REL_TOL

    def test_loss_decreases_on_separable_task(self):
        x, y = make_blobs(64, 4, 2, seed=0)
        model = init_split_model(4, [8], 6, [], 2, lr=0.1, seed=0)
        batch = Batch(x=x, y=y)  # full batch
        losses = []
        for _ in range(20):
            sm = client_forward(model.client, batch)
            loss, g_ws, grad = server_step(model.server, sm, batch.y)
            losses.append(loss)
            g_wc = client_backward(model.client, batch, grad)
            model.server = sgd_step(model.server, g_ws, 0.1, batch.size)
            model.client = sgd_step(model.client, g_wc, 0.1, batch.size)
        assert all(a > b for a, b in zip(losses, losses[1:])), losses

    def test_deterministic_trajectory(self):
        def run():
            x, y = make_blobs(32, 4, 2, seed=3)
            model = init_split_model(4, [5], 4, [], 2, lr=0.1, seed=3)
            batch = Batch(x=x, y=y)
            for _ in range(5):
                sm = client_forward(model.client, batch)
                _, g_ws, grad = server_step(model.server, sm, batch.y)
                g_wc = client_backward(model.client, batch, grad)
                model.server = sgd_step(model.server, g_ws, 0.1, batch.size)
                model.client = sgd_step(model.client, g_wc, 0.1, batch.size)
            return model

        a, b = run(), run()
        for s1, s2 in ((a.client, b.client), (a.server, b.server)):
            assert all(np.array_equal(w1, w2) for w1, w2 in zip(s1.weights, s2.weights))
            assert all(np.array_equal(b1, b2) for b1, b2 in zip(s1.biases, s2.biases))


class TestDataAndCheckpoints:
    def test_blobs_are_separable_enough(self):
        x, y = make_blobs(200, 8, 4, seed=0)
        assert x.shape == (200, 8) and set(np.unique(y)) <= {0, 1, 2, 3}

    def test_partition_is_seeded_and_disjoint(self):
        x, y = make_blobs(100, 4, 2, seed=1)
        parts_a = partition_iid(x, y, 4, seed=2)
        parts_b = partition_iid(x, y, 4, seed=2)
        assert all(np.array_equal(a[0], b[0]) for a, b in zip(parts_a, parts_b))
        assert sum(len(p[1]) for p in parts_a) == 100

    def test_batch_stream_deterministic(self):
        x, y = make_blobs(64, 4, 2, seed=1)
        s1 = batch_stream(x, y, 16, seed=9)
        s2 = batch_stream(x, y, 16, seed=9)
        for _ in range(6):
            b1, b2 = next(s1), next(s2)
            assert np.array_equal(b1.x, b2.x) and np.array_equal(b1.y, b2.y)

    def test_checkpoint_round_trip(self, tmp_path):
        model, _ = toy_instance(30)
        path = save_checkpoint(model, str(tmp_path), "ckpt", extra={"note": 1})
        back = load_checkpoint(str(path))
        assert back.cut_width == model.cut_width and back.lr == model.lr
        for s1, s2 in ((model.client, back.client), (model.server, back.server)):
            assert all(np.array_equal(w1, w2) for w1, w2 in zip(s1.weights, s2.weights))
            assert all(np.array_equal(b1, b2) for b1, b2 in zip(s1.biases, s2.biases))
            assert s1.activations == s2.activations
