"""Unit tests for the tensor/autodiff substrate.

Oracles here are deliberately naive (triple loops, direct formulas,
per-head recomputation) and independent of the production code paths.
"""

import gc
import warnings
import weakref

import numpy as np
import pytest

import attention_oracle as oracle
import numerics_oracle
from avfuse import numerics as N
from avfuse.errors import ConfigError, DimensionError, DomainError, UsageError


def make_attention_params(rng, d, scale=0.5):
    def w():
        return N.Tensor(rng.normal(0, scale, size=(d, d)))

    def b():
        return N.Tensor(rng.normal(0, scale, size=(d,)))

    return N.AttentionParams(w(), b(), w(), b(), w(), b(), w(), b())


class TestMatmul:
    def test_identity(self, rng):
        b = rng.normal(size=(3, 5))
        out = N.matmul(N.Tensor(np.eye(3)), N.Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_hand_case(self):
        out = N.matmul(N.Tensor([[1.0, 2.0], [3.0, 4.0]]), N.Tensor([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_triple_loop_oracle(self, rng):
        a = rng.normal(size=(7, 5))
        b = rng.normal(size=(5, 3))
        expected = np.zeros((7, 3))
        for i in range(7):
            for j in range(3):
                for k in range(5):
                    expected[i, j] += a[i, k] * b[k, j]
        out = N.matmul(N.Tensor(a), N.Tensor(b))
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as exc:
            N.matmul(N.Tensor(np.zeros((2, 3))), N.Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)

    def test_associativity_within_tolerance(self, rng):
        a, b, c = (rng.normal(size=(8, 8)) for _ in range(3))
        left = N.matmul(N.matmul(N.Tensor(a), N.Tensor(b)), N.Tensor(c)).data
        right = N.matmul(N.Tensor(a), N.matmul(N.Tensor(b), N.Tensor(c))).data
        np.testing.assert_allclose(left, right, atol=1e-9)

    def test_batched_broadcast(self, rng):
        a = rng.normal(size=(4, 6, 3))
        w = rng.normal(size=(3, 5))
        out = N.matmul(N.Tensor(a), N.Tensor(w))
        np.testing.assert_allclose(out.data, a @ w, atol=0)


class TestSoftmax:
    def test_symmetry(self):
        out = N.softmax_lastdim(N.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_stability_no_overflow(self):
        out = N.softmax_lastdim(N.Tensor([1000.0, 0.0]))
        assert out.data[0] > 1.0 - 1e-9
        assert out.data[1] < 1e-9

    def test_direct_formula_oracle(self, rng):
        x = rng.normal(size=(20, 9))
        expected = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
        out = N.softmax_lastdim(N.Tensor(x))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        for _ in range(50):
            x = rng.normal(scale=rng.uniform(0.1, 50.0), size=(5, 7))
            out = N.softmax_lastdim(N.Tensor(x))
            np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)
            assert (out.data >= 0).all()

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            N.softmax_lastdim(N.Tensor(np.zeros((3, 0))))


class TestSigmoid:
    def test_midpoint(self):
        assert N.sigmoid(N.Tensor([0.0])).data[0] == 0.5

    def test_saturation_stays_open(self):
        hi = N.sigmoid(N.Tensor([50.0])).data[0]
        assert 1.0 - 1e-9 < hi < 1.0
        lo = N.sigmoid(N.Tensor([-800.0])).data[0]
        assert 0.0 < lo < 1e-9

    def test_complement_identity(self, rng):
        x = rng.normal(scale=3.0, size=200)
        s = N.sigmoid(N.Tensor(x)).data + N.sigmoid(N.Tensor(-x)).data
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_strictly_inside_unit_interval(self, rng):
        x = rng.normal(scale=100.0, size=500)
        y = N.sigmoid(N.Tensor(x)).data
        assert (y > 0.0).all() and (y < 1.0).all()


class TestLayerNorm:
    def _unit(self, d):
        return N.Tensor(np.ones(d)), N.Tensor(np.zeros(d))

    def test_constant_row_is_zero(self):
        gain, bias = self._unit(6)
        out = N.layer_norm(N.Tensor(np.full((2, 6), 3.7)), gain, bias, eps=1e-5)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_standardizes(self, rng):
        x = rng.normal(loc=5.0, scale=2.0, size=(4, 32))
        gain, bias = self._unit(32)
        out = N.layer_norm(N.Tensor(x), gain, bias, eps=1e-12).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-6)

    def test_two_pass_oracle(self, rng):
        x = rng.normal(size=(3, 16))
        gain = rng.normal(size=16)
        bias = rng.normal(size=16)
        eps = 1e-6
        expected = np.empty_like(x)
        for i in range(3):
            mu = sum(x[i]) / 16.0
            var = sum((v - mu) ** 2 for v in x[i]) / 16.0
            expected[i] = (x[i] - mu) / np.sqrt(var + eps) * gain + bias
        out = N.layer_norm(N.Tensor(x), N.Tensor(gain), N.Tensor(bias), eps=eps)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_empty_dim_rejected(self):
        with pytest.raises(DomainError):
            N.layer_norm(N.Tensor(np.zeros((2, 0))), N.Tensor(np.zeros(0)), N.Tensor(np.zeros(0)))


class TestLinear:
    def test_identity_weight(self, rng):
        x = rng.normal(size=(5, 4))
        out = N.linear(N.Tensor(x), N.Tensor(np.eye(4)), N.Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_input_broadcasts_bias(self, rng):
        b = rng.normal(size=3)
        out = N.linear(N.Tensor(np.zeros((4, 2))), N.Tensor(np.zeros((2, 3))), N.Tensor(b))
        np.testing.assert_array_equal(out.data, np.tile(b, (4, 1)))

    def test_matmul_add_oracle(self, rng):
        x = rng.normal(size=(2, 6, 4))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        out = N.linear(N.Tensor(x), N.Tensor(w), N.Tensor(b))
        np.testing.assert_allclose(out.data, x @ w + b, atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            N.linear(N.Tensor(np.zeros((2, 3))), N.Tensor(np.zeros((4, 2))), N.Tensor(np.zeros(2)))


class TestMultiHeadAttention:
    def test_single_key_degenerate(self, rng):
        d = 8
        params = make_attention_params(rng, d)
        q_in = rng.normal(size=(5, d))
        kv_in = rng.normal(size=(1, d))
        out = N.multi_head_attention(N.Tensor(q_in), N.Tensor(kv_in), params, heads=2)
        v = kv_in @ params.wv.data + params.bv.data
        expected = v @ params.wo.data + params.bo.data
        for row in out.data:
            np.testing.assert_allclose(row, expected[0], atol=1e-12)

    def test_causal_future_invariance_bit_exact(self, rng):
        d = 8
        params = make_attention_params(rng, d)
        x = rng.normal(size=(3, d))
        out1 = N.multi_head_attention(N.Tensor(x), N.Tensor(x), params, heads=2, causal=True)
        x2 = x.copy()
        x2[2] += rng.normal(size=d) * 10.0
        out2 = N.multi_head_attention(N.Tensor(x2), N.Tensor(x2), params, heads=2, causal=True)
        assert np.array_equal(out1.data[:2], out2.data[:2])

    def test_per_head_oracle(self, rng):
        d, heads = 12, 2
        e = d // heads
        params = make_attention_params(rng, d)
        q_in = rng.normal(size=(4, d))
        kv_in = rng.normal(size=(6, d))
        out = N.multi_head_attention(N.Tensor(q_in), N.Tensor(kv_in), params, heads=heads)

        q = q_in @ params.wq.data + params.bq.data
        k = kv_in @ params.wk.data + params.bk.data
        v = kv_in @ params.wv.data + params.bv.data
        ctx_heads = []
        for h in range(heads):
            sl = slice(h * e, (h + 1) * e)
            logits = q[:, sl] @ k[:, sl].T / np.sqrt(e)
            w = np.exp(logits - logits.max(axis=-1, keepdims=True))
            w /= w.sum(axis=-1, keepdims=True)
            ctx_heads.append(w @ v[:, sl])
        expected = np.concatenate(ctx_heads, axis=-1) @ params.wo.data + params.bo.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_head_divisibility_config_error(self, rng):
        params = make_attention_params(rng, 6)
        x = N.Tensor(rng.normal(size=(2, 6)))
        with pytest.raises(ConfigError):
            N.multi_head_attention(x, x, params, heads=4)

    def test_all_masked_row_is_hard_error(self, rng):
        d = 4
        params = make_attention_params(rng, d)
        q = N.Tensor(rng.normal(size=(2, d)))
        kv = N.Tensor(rng.normal(size=(3, d)))
        with pytest.raises(DomainError):
            N.multi_head_attention(q, kv, params, heads=2, kv_padding_mask=np.zeros(3, bool))

    def test_padding_mask_matches_truncation(self, rng):
        d = 8
        params = make_attention_params(rng, d)
        q = rng.normal(size=(3, d))
        kv = rng.normal(size=(5, d))
        mask = np.array([True, True, True, False, False])
        masked = N.multi_head_attention(N.Tensor(q), N.Tensor(kv), params, 2, kv_padding_mask=mask)
        truncated = N.multi_head_attention(N.Tensor(q), N.Tensor(kv[:3]), params, 2)
        np.testing.assert_allclose(masked.data, truncated.data, atol=1e-12)

    @pytest.mark.parametrize("past", [1, 3, 5])
    def test_cached_kv_matches_last_rows_of_full_call(self, rng, past):
        d, L = 8, 6
        params = make_attention_params(rng, d)
        x = rng.normal(size=(L, d))
        full = N.multi_head_attention(N.Tensor(x), N.Tensor(x), params, 2, causal=True)
        cached = N.project_kv(x[:past], params, 2)
        new_rows = x[past:]
        for kv_in in (N.Tensor(new_rows), N.project_kv(new_rows, params, 2)):
            out, (k, v) = N.multi_head_attention(N.Tensor(new_rows), kv_in, params, 2,
                                                 causal=True, past_kv=cached)
            np.testing.assert_allclose(out.data, full.data[past:], rtol=0, atol=1e-12)
            assert k.shape == v.shape == (2, L, d // 2)

    def test_causal_needs_no_more_queries_than_keys(self, rng):
        d = 8
        params = make_attention_params(rng, d)
        q = N.Tensor(rng.normal(size=(4, d)))
        kv = N.Tensor(rng.normal(size=(3, d)))
        with pytest.raises(DimensionError):
            N.multi_head_attention(q, kv, params, 2, causal=True)

    def test_batched_matches_single(self, rng):
        d = 8
        params = make_attention_params(rng, d)
        q = rng.normal(size=(3, 4, d))
        kv = rng.normal(size=(3, 6, d))
        batched = N.multi_head_attention(N.Tensor(q), N.Tensor(kv), params, 2)
        for i in range(3):
            single = N.multi_head_attention(N.Tensor(q[i]), N.Tensor(kv[i]), params, 2)
            assert np.array_equal(batched.data[i], single.data)


def _taped(attend, arrays, param_arrays, mixer):
    """Run ``attend(tensors, params)`` on fresh leaves under a tape; returns the
    output bytes and the gradient bytes of every input and parameter."""
    leaves = [N.Tensor(a, requires_grad=True) for a in arrays]
    params = N.AttentionParams(*(N.Tensor(a, requires_grad=True) for a in param_arrays))
    with N.GradTape() as tape:
        out = attend(leaves, params)
        extra = []
        if isinstance(out, tuple):
            out, extra = out[0], list(out[1])
        loss = N.sum_(N.mul(out, mixer))
        for t in extra:  # the returned (k, v) carry gradient too
            loss = N.add(loss, N.sum_(N.mul(t, 0.5)))
        # a later use of the first input, as the residual add makes: its
        # gradient then sums four terms, so their order shows in the bits
        loss = N.add(loss, N.sum_(N.mul(leaves[0], 0.3)))
    grads = N.backward(loss, tape)
    tensors = leaves + [getattr(params, f) for f in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")]
    return ([out.data.tobytes()] + [t.data.tobytes() for t in extra],
            [grads[t].tobytes() for t in tensors])


class TestFusedAttentionMatchesComposite:
    """Output and every gradient of the two-op attention equal the per-op
    composite in ``attention_oracle`` bit for bit."""

    D, HEADS = 8, 2

    def _compare(self, rng, attend, shapes, mixer_shape, **kwargs):
        arrays = [rng.normal(size=s) for s in shapes]
        param_arrays = [rng.normal(0, 0.5, size=s) for s in [(self.D, self.D), (self.D,)] * 4]
        mixer = rng.normal(size=mixer_shape)
        fused = _taped(lambda t, p: attend(N, t, p), arrays, param_arrays, mixer)
        plain = _taped(lambda t, p: attend(oracle, t, p), arrays, param_arrays, mixer)
        assert fused[0] == plain[0]
        assert len(fused[1]) == len(plain[1]) == len(shapes) + 8
        for i, (a, b) in enumerate(zip(fused[1], plain[1])):
            assert a == b, f"gradient {i} differs"

    def test_causal_self_attention(self, rng):
        def attend(ops, t, p):
            return ops.multi_head_attention(t[0], t[0], p, self.HEADS, causal=True)

        self._compare(rng, attend, [(5, self.D)], (5, self.D))

    @pytest.mark.parametrize("batched", [False, True])
    def test_padding_mask(self, rng, batched):
        lead = (3,) if batched else ()
        mask = (np.array([[1, 1, 1, 0], [1, 0, 0, 0], [1, 1, 1, 1]], bool) if batched
                else np.array([1, 1, 0, 1], bool))

        def attend(ops, t, p):
            return ops.multi_head_attention(t[0], t[1], p, self.HEADS, kv_padding_mask=mask)

        self._compare(rng, attend, [lead + (2, self.D), lead + (4, self.D)], lead + (2, self.D))

    def test_pre_projected_kv_broadcast_over_hypotheses(self, rng):
        mask = np.array([1, 1, 1, 0, 0], bool)

        def attend(ops, t, p):
            kv = ops.project_kv(t[1], p, self.HEADS)  # (heads, T, e) for 4 hypotheses
            return ops.multi_head_attention(t[0], kv, p, self.HEADS, kv_padding_mask=mask)

        self._compare(rng, attend, [(4, 1, self.D), (5, self.D)], (4, 1, self.D))

    @pytest.mark.parametrize("past", [1, 3])
    def test_past_kv(self, rng, past):
        def attend(ops, t, p):
            cached = ops.project_kv(t[1], p, self.HEADS)  # past rows, on the tape
            return ops.multi_head_attention(t[0], t[0], p, self.HEADS, causal=True,
                                            past_kv=cached)

        for queries in (2, 1):  # one query, a decode step, attends without a causal mask
            self._compare(rng, attend, [(queries, self.D), (past, self.D)], (queries, self.D))

    def test_dropout(self, rng):
        def attend(ops, t, p):
            return ops.multi_head_attention(t[0], t[0], p, self.HEADS, causal=True,
                                            attn_dropout=0.3,
                                            dropout_rng=np.random.default_rng(11))

        self._compare(rng, attend, [(6, self.D)], (6, self.D))

    def test_tape_counts(self, rng):
        params = make_attention_params(rng, self.D)
        x = N.Tensor(rng.normal(size=(3, self.D)), requires_grad=True)
        with N.GradTape() as tape:
            N.multi_head_attention(x, x, params, self.HEADS, causal=True)
        assert len(tape) == 5  # project q, k, v; attention; output linear
        feats = N.Tensor(rng.normal(size=(4, self.D)), requires_grad=True)
        kv = N.project_kv(feats, params, self.HEADS)
        with N.GradTape() as tape:
            N.multi_head_attention(x, kv, params, self.HEADS)
        assert len(tape) == 3  # project q; attention; output linear


def _taped_op(op, arrays, mixer):
    """Output bytes and the bytes of every input gradient of ``sum(op(*leaves) * mixer)``."""
    leaves = [N.Tensor(a, requires_grad=True) for a in arrays]
    with N.GradTape() as tape:
        out = op(*leaves)
        loss = N.sum_(N.mul(out, mixer))
    grads = N.backward(loss, tape)
    return out.data.tobytes(), [grads[t].tobytes() for t in leaves]


class TestFastFormsMatchOracles:
    """The cheaper forms of ``sigmoid``, ``layer_norm``, ``concat``'s VJP and
    the finite check equal the plain formulas in ``numerics_oracle`` bit for
    bit, on inputs chosen to reach their edges, with every warning an error."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_sigmoid(self, rng):
        tiny = np.nextafter(0.0, 1.0)
        edges = np.array([0.0, -0.0, tiny, -tiny, 1e-300, 1e-17, 0.5, 1.0, 17.0, 36.0,
                          36.8, 37.0, 40.0, 708.0, 709.8, 710.0, 745.1, 746.0, 1e5, 1e300,
                          1e308, np.finfo(np.float64).max])
        cases = [np.concatenate([edges, -edges]),
                 rng.normal(scale=10.0, size=(3, 4, 5)),
                 np.exp(rng.uniform(-700, 700, size=20000)) * rng.choice([-1.0, 1.0], size=20000),
                 np.array(-3.5), np.array(0.0), np.zeros((0, 3))]
        for x in cases:
            mixer = rng.normal(size=x.shape)
            assert _taped_op(N.sigmoid, [x], mixer) == _taped_op(numerics_oracle.sigmoid, [x], mixer)

    @pytest.mark.parametrize("shape", [(1,), (7,), (2, 3), (4, 1, 9), (2, 3, 130), (1, 1, 1000)])
    def test_layer_norm(self, rng, shape):
        d = shape[-1]
        scales = 10.0 ** rng.uniform(-150, 150, size=shape)
        for x in (rng.normal(size=shape), rng.normal(loc=1e6, scale=1e-3, size=shape),
                  rng.normal(size=shape) * scales, np.full(shape, -2.5)):
            arrays = [x, rng.normal(size=d), rng.normal(size=d)]
            mixer = rng.normal(size=shape)
            for eps in (1e-5, 1e-12):
                def fast(a, g, b):
                    return N.layer_norm(a, g, b, eps=eps)

                def plain(a, g, b):
                    return numerics_oracle.layer_norm(a, g, b, eps=eps)

                assert _taped_op(fast, arrays, mixer) == _taped_op(plain, arrays, mixer)

    def test_layer_norm_non_contiguous_input(self, rng):
        x = rng.normal(size=(16, 5)).T  # rows of stride 16
        arrays = [x, rng.normal(size=16), rng.normal(size=16)]
        mixer = rng.normal(size=x.shape)
        assert (_taped_op(N.layer_norm, arrays, mixer)
                == _taped_op(numerics_oracle.layer_norm, arrays, mixer))

    @pytest.mark.parametrize("axis, shapes", [
        (-1, [(2, 3), (2, 1), (2, 4)]),
        (-2, [(1, 2, 0, 4), (1, 2, 3, 4), (1, 2, 1, 4)]),
        (0, [(5, 2)]),
        (1, [(3, 0), (3, 2), (3, 0), (3, 5)]),
        (-3, [(2, 3, 1, 4), (2, 1, 1, 4)]),
    ])
    def test_concat(self, rng, axis, shapes):
        arrays = [rng.normal(size=s) for s in shapes]
        mixer = rng.normal(size=np.concatenate(arrays, axis=axis).shape)

        def fast(*ts):
            return N.concat(ts, axis=axis)

        def plain(*ts):
            return numerics_oracle.concat(ts, axis=axis)

        assert _taped_op(fast, arrays, mixer) == _taped_op(plain, arrays, mixer)

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3, 1, 4)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_check_finite_rejects_each_position(self, shape, bad):
        size = int(np.prod(shape))
        for pos in sorted({0, size // 2, size - 1}):
            arr = np.ones(shape)
            arr.reshape(-1)[pos] = bad
            for check in (N._check_finite, numerics_oracle.check_finite):
                with pytest.raises(DomainError, match="produced by probe"):
                    check(arr, "probe")

    @pytest.mark.parametrize("shape", [(0,), (2, 0, 3), (), (5,), (2, 3, 1, 4)])
    def test_check_finite_accepts_empty_and_finite(self, shape):
        arr = np.full(shape, np.finfo(np.float64).max)
        N._check_finite(arr, "probe")
        numerics_oracle.check_finite(arr, "probe")


class TestBackward:
    def test_identity_gradient(self):
        x = N.Tensor(np.array([3.0]), requires_grad=True)
        with N.GradTape() as tape:
            out = N.sum_(x)
        grads = N.backward(out, tape)
        np.testing.assert_array_equal(grads[x], [1.0])

    def test_sum_of_squares_gradient(self, rng):
        xv = rng.normal(size=(4, 3))
        x = N.Tensor(xv, requires_grad=True)
        with N.GradTape() as tape:
            out = N.sum_(N.mul(x, x))
        grads = N.backward(out, tape)
        np.testing.assert_allclose(grads[x], 2.0 * xv, atol=1e-12)

    def test_leaf_the_output_does_not_reach_has_no_entry(self, rng):
        x = N.Tensor(rng.normal(size=3), requires_grad=True)
        unused = N.Tensor(rng.normal(size=2), requires_grad=True)
        with N.GradTape() as tape:
            _ = N.mul(unused, 2.0)  # on tape but not on the loss path
            out = N.sum_(N.mul(x, 3.0))
        grads = N.backward(out, tape)
        assert set(grads) == {x}
        np.testing.assert_array_equal(grads[x], np.full(3, 3.0))

    def test_gradient_shapes_match_leaves(self, rng):
        w = N.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        x = N.Tensor(rng.normal(size=(2, 3)))
        with N.GradTape() as tape:
            out = N.sum_(N.matmul(x, w))
        grads = N.backward(out, tape)
        assert grads[w].shape == (3, 5)

    def test_non_scalar_output_rejected(self, rng):
        x = N.Tensor(rng.normal(size=3), requires_grad=True)
        with N.GradTape() as tape:
            out = N.mul(x, x)
        with pytest.raises(UsageError):
            N.backward(out, tape)

    def test_reuse_accumulates(self, rng):
        xv = rng.normal(size=4)
        x = N.Tensor(xv, requires_grad=True)
        with N.GradTape() as tape:
            out = N.sum_(N.add(N.mul(x, x), x))  # x^2 + x
        grads = N.backward(out, tape)
        np.testing.assert_allclose(grads[x], 2 * xv + 1, atol=1e-12)

    def test_backward_empties_the_tape_and_releases_intermediates(self, rng):
        # A Tensor has no weakref slot, so the refs watch the intermediates'
        # buffers: a buffer that is dead has no tensor left holding it.
        x = N.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        gc.disable()  # only reference counts may free them
        try:
            with N.GradTape() as tape:
                sq = N.mul(x, x)
                hidden = N.gelu(sq)
                out = N.sum_(hidden)
            refs = [weakref.ref(sq.data), weakref.ref(hidden.data)]
            grads = N.backward(out, tape)
            assert len(tape) == 0
            del sq, hidden, out
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()
        assert set(grads) == {x}

    def test_second_backward_on_the_same_tape_raises(self, rng):
        x = N.Tensor(rng.normal(size=3), requires_grad=True)
        with N.GradTape() as tape:
            out = N.sum_(N.mul(x, x))
        N.backward(out, tape)
        with pytest.raises(UsageError, match="empty tape"):
            N.backward(out, tape)

    def test_backward_over_a_tape_that_recorded_nothing_raises(self):
        with N.GradTape() as tape:
            out = N.sum_(N.Tensor(np.array([1.0])))  # no input requires a gradient
        with pytest.raises(UsageError, match="empty tape"):
            N.backward(out, tape)


class TestGradcheck:
    def test_sum_of_squares(self, rng):
        point = N.Tensor(rng.normal(size=(3, 3)))
        err = N.gradcheck(lambda t: N.sum_(N.mul(t, t)), point)
        assert err < 1e-9

    def test_attention_composite(self, rng):
        d = 8
        params = make_attention_params(rng, d, scale=0.3)
        kv = N.Tensor(rng.normal(size=(5, d)))
        mixer = rng.normal(size=(3, d))

        def f(q):
            out = N.multi_head_attention(q, kv, params, heads=2, causal=False)
            return N.sum_(N.mul(out, mixer))

        err = N.gradcheck(f, N.Tensor(rng.normal(size=(3, d))))
        assert err < 1e-6

    def test_project_heads(self, rng):
        w = rng.normal(0, 0.5, size=(6, 6))
        b = N.Tensor(rng.normal(0, 0.5, size=6))
        x = rng.normal(size=(2, 4, 6))
        mixer = rng.normal(size=(2, 3, 4, 2))
        f_x = lambda t: N.sum_(N.mul(N.project_heads(t, N.Tensor(w), b, 3), mixer))  # noqa: E731
        f_w = lambda t: N.sum_(N.mul(N.project_heads(N.Tensor(x), t, b, 3), mixer))  # noqa: E731
        assert N.gradcheck(f_x, N.Tensor(x)) < 1e-5
        assert N.gradcheck(f_w, N.Tensor(w)) < 1e-5

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_attention(self, rng, which):
        """Gradient of q, k or v through a causal mask, a padding mask and dropout."""
        qkv = [rng.normal(size=(2, 2, 3, 4)), rng.normal(size=(2, 5, 4)),
               rng.normal(size=(2, 5, 4))]
        valid = np.tril(np.ones((3, 5), bool), k=2) & np.array([1, 1, 1, 1, 0], bool)
        mixer = rng.normal(size=(2, 3, 8))

        def f(t):
            args = [N.Tensor(a) for a in qkv]
            args[which] = t
            out = N.attention(*args, valid, 0.25, np.random.default_rng(5))
            return N.sum_(N.mul(out, mixer))

        assert N.gradcheck(f, N.Tensor(qkv[which])) < 1e-5

    def test_composites_pass_below_1e5(self, rng):
        d = 6
        gain = N.Tensor(rng.normal(size=d) * 0.1 + 1.0)
        bias = N.Tensor(rng.normal(size=d) * 0.1)
        w = N.Tensor(rng.normal(size=(d, d)) * 0.5)
        b = N.Tensor(rng.normal(size=d) * 0.5)

        def f(x):
            h = N.layer_norm(x, gain, bias, eps=1e-5)
            h = N.gelu(N.linear(h, w, b))
            h = N.softmax_lastdim(h)
            return N.sum_(N.mul(N.sigmoid(h), h))

        err = N.gradcheck(f, N.Tensor(rng.normal(size=(4, d))))
        assert err < 1e-5

    def test_threshold_crossing_without_exclusion_blows_up(self):
        beta = 0.5

        def f(x):
            hard = (x.data > beta).astype(np.float64)  # recomputed per probe
            return N.sum_(N.mul(x, hard))

        point = N.Tensor(np.array([0.2, beta - 1e-8, 0.9]))
        err = N.gradcheck(f, point)
        assert err > 0.4  # the finite difference sees the jump; far beyond any tolerance

        err_excluded = N.gradcheck(f, point, exclusion_predicate=lambda i: i == 1)
        assert err_excluded < 1e-9

    def test_exclusion_predicate_runs_after_both_probes(self, rng):
        """The predicate of coordinate i sees f called for the analytic
        gradient and for the two probes of every coordinate up to i."""
        calls, seen = [0], []

        def f(t):
            calls[0] += 1
            return N.sum_(N.mul(t, t))

        def predicate(i):
            seen.append((i, calls[0]))
            return False

        N.gradcheck(f, N.Tensor(rng.normal(size=3)), exclusion_predicate=predicate)
        assert seen == [(0, 3), (1, 5), (2, 7)]

    def test_coordinate_sampling_deterministic(self, rng):
        point = N.Tensor(rng.normal(size=50))
        f = lambda t: N.sum_(N.mul(t, t))
        e1 = N.gradcheck(f, point, max_coords=10, rng=np.random.default_rng(7))
        e2 = N.gradcheck(f, point, max_coords=10, rng=np.random.default_rng(7))
        assert e1 == e2
        assert e1 < 1e-7

    def test_random_composite_graphs(self):
        """Fuzz: random DAGs over the op set must pass gradcheck."""

        def random_graph(seed):
            gen = np.random.default_rng(seed)
            d = int(gen.integers(2, 5))
            rows = int(gen.integers(1, 4))
            consts = {
                "gain": N.Tensor(1.0 + 0.1 * gen.normal(size=d)),
                "bias": N.Tensor(0.1 * gen.normal(size=d)),
                "w": N.Tensor(gen.normal(size=(d, d)) * 0.5),
                "b": N.Tensor(gen.normal(size=d) * 0.5),
                "mix": gen.normal(size=(rows, d)),
            }
            ops = list(gen.integers(0, 7, size=int(gen.integers(2, 6))))

            def f(x):
                h = x
                for op in ops:
                    if op == 0:
                        h = N.add(h, consts["bias"])
                    elif op == 1:
                        h = N.mul(h, N.sigmoid(h))
                    elif op == 2:
                        h = N.linear(h, consts["w"], consts["b"])
                    elif op == 3:
                        h = N.layer_norm(h, consts["gain"], consts["bias"], eps=1e-5)
                    elif op == 4:
                        h = N.softmax_lastdim(h)
                    elif op == 5:
                        h = N.gelu(h)
                    else:
                        both = N.concat([h, h], axis=-1)
                        h = N.slice_axis(both, both.ndim - 1, 0, d)
                return N.sum_(N.mul(h, consts["mix"]))

            return f, N.Tensor(gen.normal(size=(rows, d)))

        for seed in range(20):
            f, point = random_graph(seed)
            err = N.gradcheck(f, point)
            assert err < 1e-5, f"graph seed {seed}: {err}"


class _KeepAll:
    """A dropout generator whose draws keep every position."""

    def random(self, shape):
        return np.ones(shape)


class TestFiniteGuard:
    def test_overflow_is_an_error(self):
        with pytest.raises(DomainError):
            N.matmul(N.Tensor([[1e200]]), N.Tensor([[1e200]]))

    @pytest.mark.parametrize("op", ["linear", "project_heads", "attention_logits",
                                    "attention_context"])
    def test_overflow_in_src_ops_is_an_error_without_warning(self, op):
        big = np.full((1, 2, 4), 1e200)
        w, b = np.full((4, 4), 1e200), np.zeros(4)
        calls = {
            "linear": lambda: N.linear(big, w, b),
            "project_heads": lambda: N.project_heads(big, w, b, 2),
            # q kᵀ overflows
            "attention_logits": lambda: N.attention(big, big, big, None, 0.0, None),
            # two keys kept at rate 0.5 weigh 1.0 each: 1.5e308 + 1.5e308 overflows
            "attention_context": lambda: N.attention(
                np.ones((1, 1, 4)), np.zeros((1, 2, 4)), np.full((1, 2, 4), 1.5e308),
                None, 0.5, _KeepAll()),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite"):
                calls[op]()

    def test_nan_input_rejected_at_construction(self):
        with pytest.raises(DomainError):
            N.Tensor([np.nan])


class TestPrecisionSwitch:
    def test_gradcheck_insists_on_float64(self, rng):
        point = rng.normal(size=3).astype(np.float32)
        with pytest.raises(UsageError):
            N.gradcheck(lambda t: N.sum_(t), point)


class TestDeterminism:
    def test_attention_bit_reproducible(self, rng):
        d = 16
        params = make_attention_params(rng, d)
        x = rng.normal(size=(7, d))
        a = N.multi_head_attention(N.Tensor(x), N.Tensor(x), params, 4, causal=True)
        b = N.multi_head_attention(N.Tensor(x), N.Tensor(x), params, 4, causal=True)
        assert np.array_equal(a.data, b.data)
