import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zksplit.quant import (
    DEFAULT_Q_MAX,
    DEFAULT_Q_MIN,
    CalibrationError,
    OverflowError_,
    QuantError,
    QuantParams,
    calibrate,
    dequantize,
    dequantize_array,
    quantize,
    quantize_array,
)


class TestCalibrate:
    def test_symmetric_int8_example(self):
        # hand solve: s0 = 2/254 = 1/127, z0 = 0; round down to 2**-7,
        # coverage at q_max fails (127/128 < 1), so 2**-6 is selected
        p = calibrate(-1.0, 1.0, 0.0, -127, 127)
        assert p.scale_exp == 6
        assert p.zero_point == 0
        assert p.effective_lo <= -1.0 and p.effective_hi >= 1.0

    def test_unsigned_uint8_example(self):
        # hand solve: s0 = 1/255, z0 = 0; 2**-8 fails coverage (255/256 < 1)
        p = calibrate(0.0, 1.0, 0.0, 0, 255)
        assert p.scale_exp == 7
        assert p.zero_point == 0

    def test_empty_range_errors(self):
        with pytest.raises(CalibrationError, match="empty calibration range"):
            calibrate(1.0, 1.0)
        with pytest.raises(CalibrationError, match="empty calibration range"):
            calibrate(2.0, -2.0)

    def test_bit_budget_exceeded(self):
        # covering [-1e9, 1e9] with 16-bit integers needs s > 1
        with pytest.raises(CalibrationError, match="range exceeds bit budget"):
            calibrate(-1e9, 1e9)

    def test_eps_widens_requested_range(self):
        p = calibrate(-1.0, 1.0, eps=0.5, q_min=-127, q_max=127)
        assert p.effective_lo <= -1.0 and p.effective_hi >= 1.0
        assert p.eps == 0.5

    @pytest.mark.parametrize("a,b", [(-4.0, 4.0), (0.0, 10.0), (-0.3, 0.7), (-1e-3, 1e-3)])
    def test_coverage_invariant(self, a, b):
        p = calibrate(a, b)
        s = p.scale
        assert s * (p.q_min - p.zero_point) <= a
        assert s * (p.q_max - p.zero_point) >= b
        assert p.q_min <= p.zero_point <= p.q_max

    @pytest.mark.parametrize("a,b", [(-5e-324, 0.0), (-1e-320, 1e-320), (0.0, 1e-305)])
    def test_range_too_narrow_for_a_float_scale(self, a, b):
        # the width underflows to 0, or needs a scale 2**-f with 2.0**f past the largest float
        with pytest.raises(CalibrationError, match="float scale"):
            calibrate(a, b)

    def test_scale_is_power_of_two(self):
        for a, b in [(-3.7, 2.2), (0.1, 0.9), (-128.0, 128.0)]:
            p = calibrate(a, b)
            frac, _ = math.frexp(p.scale)
            assert frac == 0.5


class TestQuantizeDequantize:
    def setup_method(self):
        self.p = calibrate(-2.0, 2.0)

    def test_zero_maps_to_zero_point(self):
        assert quantize(0.0, self.p) == self.p.zero_point
        assert dequantize(self.p.zero_point, self.p) == 0.0

    def test_formula_example(self):
        # s = 0.25 (f = 2), z = 10: floor(0.5/0.25) + 10 = 12
        p = QuantParams(scale_exp=2, zero_point=10, eps=0.0, q_min=0, q_max=255)
        assert quantize(0.5, p) == 12
        assert dequantize(12, p) == 0.5

    def test_round_trip_bound(self):
        rnd = random.Random(42)
        for _ in range(1000):
            x = rnd.uniform(-2.0, 2.0)
            err = x - dequantize(quantize(x, self.p), self.p)
            assert 0.0 <= err < self.p.scale

    def test_floor_is_downward(self):
        rnd = random.Random(7)
        for _ in range(200):
            x = rnd.uniform(-2.0, 2.0)
            assert dequantize(quantize(x, self.p), self.p) <= x

    def test_monotonicity(self):
        rnd = random.Random(3)
        xs = sorted(rnd.uniform(-2.0, 2.0) for _ in range(500))
        qs = [quantize(x, self.p) for x in xs]
        assert qs == sorted(qs)

    def test_overflow_is_error_not_clamp(self):
        with pytest.raises(OverflowError_, match="quantization overflow"):
            quantize(self.p.effective_hi + 1.0, self.p)
        with pytest.raises(OverflowError_):
            quantize(float("nan"), self.p)
        with pytest.raises(OverflowError_):
            quantize(float("inf"), self.p)

    def test_boundaries_exact(self):
        assert quantize(self.p.effective_hi, self.p) == self.p.q_max
        assert quantize(self.p.effective_lo, self.p) == self.p.q_min

    def test_dequantize_range_check(self):
        with pytest.raises(QuantError, match="invalid quantized value"):
            dequantize(self.p.q_max + 1, self.p)

    def test_calibration_soundness_never_errors_inside_ab(self):
        rnd = random.Random(11)
        for a, b in [(-1.0, 1.0), (0.0, 5.0), (-0.123, 7.5)]:
            p = calibrate(a, b)
            for _ in range(500):
                q = quantize(rnd.uniform(a, b), p)
                assert p.q_min <= q <= p.q_max


class TestArrays:
    def test_array_matches_scalar(self):
        p = calibrate(-2.0, 2.0)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-2, 2, size=256)
        qa = quantize_array(xs, p)
        assert [int(q) for q in qa] == [quantize(float(x), p) for x in xs]
        back = dequantize_array(qa, p)
        assert all(back[i] == dequantize(int(qa[i]), p) for i in range(len(xs)))

    def test_array_overflow(self):
        p = calibrate(-1.0, 1.0)
        with pytest.raises(OverflowError_):
            quantize_array(np.array([0.0, 100.0]), p)

    @pytest.mark.parametrize("big", [1e20, -1e20, 1e300, -1e300])
    def test_values_beyond_int64_raise_before_the_cast(self, big):
        p = calibrate(-4.0, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no invalid-cast or overflow warning
            with pytest.raises(OverflowError_, match="quantization overflow"):
                quantize_array(np.array([0.0, big]), p)
            with pytest.raises(OverflowError_, match="quantization overflow"):
                quantize(big, p)

    @pytest.mark.parametrize("big", [2**63, -2**70, 10**400, -10**400],
                             ids=["2**63", "-2**70", "10**400", "-10**400"])
    def test_ints_past_int64_and_float_raise_quant_errors(self, big):
        p = calibrate(-4.0, 4.0)
        # quantizing converts to float first; 10**400 has no float
        for f in (lambda: quantize_array([0, big], p), lambda: quantize(big, p)):
            with pytest.raises(OverflowError_, match="quantization overflow"):
                f()
        # dequantizing converts to int64 first; none of these fit
        for f in (lambda: dequantize_array([0, big], p), lambda: dequantize(big, p)):
            with pytest.raises(QuantError, match="invalid quantized value"):
                f()

    @pytest.mark.parametrize("q", [1.5, 1.0, "1", None])
    def test_dequantize_refuses_what_is_not_an_integer(self, q):
        p = calibrate(-4.0, 4.0)
        for f in (lambda: dequantize_array([0, q], p), lambda: dequantize(q, p)):
            with pytest.raises(QuantError, match="invalid quantized value"):
                f()
        assert dequantize_array([], p).shape == (0,)

    def test_array_range_ends_are_exact(self):
        p = calibrate(-2.0, 2.0)
        top = p.effective_hi + p.scale  # the first real that floors past q_max
        assert list(quantize_array([p.effective_lo, np.nextafter(top, 0.0)], p)) == [
            p.q_min, p.q_max]
        for x in (top, np.nextafter(p.effective_lo, -np.inf), np.nan, np.inf):
            with pytest.raises(OverflowError_):
                quantize_array([x], p)
        assert quantize_array(np.zeros(0), p).shape == (0,)


class TestSerialization:
    def test_json_round_trip(self):
        p = calibrate(-4.0, 4.0, eps=0.01)
        d = json.loads(json.dumps(p.to_dict()))
        assert QuantParams.from_dict(d) == p
        assert set(d) == {"scale_exp", "zero_point", "eps", "q_min", "q_max"}


anything = st.floats(allow_nan=True, allow_infinity=True)
# every scale whose 2.0 ** scale_exp is a finite float, and any zero point
params = st.builds(QuantParams, scale_exp=st.integers(-64, 1022),
                   zero_point=st.integers(DEFAULT_Q_MIN, DEFAULT_Q_MAX), eps=st.just(0.0),
                   q_min=st.just(DEFAULT_Q_MIN), q_max=st.just(DEFAULT_Q_MAX))


class TestProperties:
    @settings(max_examples=500, deadline=None)
    @given(x=anything, y=anything, eps=st.one_of(st.just(0.0), anything))
    def test_calibrate_covers_the_range_or_refuses(self, x, y, eps):
        for a, b in ((x, y), (y, x)):
            try:
                p = calibrate(a, b, eps)
            except CalibrationError:
                continue
            assert type(p.scale_exp) is int and math.frexp(p.scale)[0] == 0.5
            assert p.q_min <= p.zero_point <= p.q_max
            assert p.scale * (p.q_min - p.zero_point) <= a and p.scale * (p.q_max - p.zero_point) >= b
            assert p.q_min <= quantize(a, p) <= quantize(b, p) <= p.q_max

    @settings(max_examples=500, deadline=None)
    @given(p=params, x=anything)
    # x / s underflows to -0.0, whose floor is 0 where floor(x / s) is -1
    @example(p=QuantParams(-37, 0, 0.0, DEFAULT_Q_MIN, DEFAULT_Q_MAX), x=-2.2250738585e-313)
    def test_quantize_floors_or_raises_never_clamps(self, p, x):
        lo, hi = p.scale * (p.q_min - p.zero_point), p.scale * (p.q_max - p.zero_point + 1)
        try:
            q = quantize(x, p)
        except OverflowError_:
            assert not lo <= x < hi
            return
        assert p.q_min <= q <= p.q_max
        assert dequantize(q, p) <= x < dequantize(q, p) + p.scale

    @settings(max_examples=300, deadline=None)
    @given(p=params, xs=st.lists(anything, max_size=8))
    def test_quantize_array_agrees_with_quantize(self, p, xs):
        try:
            scalar = [quantize(x, p) for x in xs]
        except OverflowError_:
            with pytest.raises(OverflowError_):
                quantize_array(np.array(xs, dtype=np.float64), p)
            return
        assert quantize_array(np.array(xs, dtype=np.float64), p).tolist() == scalar
