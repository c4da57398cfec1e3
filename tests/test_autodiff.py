"""Tests for the tape and its ops."""
import numpy as np
import pytest

from avfuse.autodiff import (
    GraphError,
    MacCounter,
    Rng,
    ShapeError,
    Tensor,
    backward,
    count_macs,
)
from avfuse.autodiff import (
    add,
    attention,
    concat_cols,
    cross_entropy_logits,
    gelu,
    grouped_linear,
    layer_norm,
    matmul,
    mean_rows,
    mul,
    no_grad,
    relu,
    reshape,
    scale,
)

from helpers import (
    cols,
    concat_rows,
    mean_all,
    sum_all,
    softmax_rows,
    transpose,
    loop_matmul,
    scalar_gelu,
    scalar_layer_norm,
    scalar_softmax_rows,
    check_gradients,
)


def rng_arr(seed, *shape, scale=1.0):
    r = np.random.default_rng(seed)
    return r.standard_normal(shape) * scale


class TestTensorBasics:
    def test_dtype_and_copy(self):
        x = Tensor([[1, 2], [3, 4]])
        assert x.data.dtype == np.float64
        assert x.data.shape == (2, 2)

    def test_scalar_stays_zero_dim(self):
        # 0-d arrays must not be promoted to shape (1,)
        x = Tensor(3.5)
        assert x.data.shape == ()
        assert x.item() == 3.5

    def test_requires_grad_flag(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = Tensor(np.ones((2, 2)))
        z = matmul(x, y)
        assert z.requires_grad
        w = matmul(y, y)
        assert not w.requires_grad


class TestForwardOracles:
    def test_matmul_identity_and_projector(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(Tensor(np.eye(2)), Tensor(b)).data, b)
        proj = np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(
            matmul(Tensor(proj), Tensor([[5.0, 6.0], [7.0, 8.0]])).data, [[5.0, 6.0], [0.0, 0.0]]
        )

    def test_matmul_matches_loops(self):
        a = rng_arr(0, 4, 5)
        b = rng_arr(1, 5, 3)
        got = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, loop_matmul(a, b), rtol=1e-14)

    def test_softmax_matches_scalar(self):
        x = rng_arr(2, 6, 7, scale=3.0)
        got = softmax_rows(Tensor(x)).data
        np.testing.assert_allclose(got, scalar_softmax_rows(x), rtol=1e-13)

    def test_softmax_rows_sum_to_one(self):
        for seed in range(5):
            x = rng_arr(seed, 4, 9, scale=10.0)
            got = softmax_rows(Tensor(x)).data
            np.testing.assert_allclose(got.sum(axis=1), np.ones(4), rtol=1e-12)

    def test_softmax_shift_invariance(self):
        x = rng_arr(3, 3, 5)
        a = softmax_rows(Tensor(x)).data
        b = softmax_rows(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_softmax_uniform_and_saturated_rows(self):
        flat = softmax_rows(Tensor([[0.0, 0.0, 0.0]])).data
        np.testing.assert_allclose(flat, np.full((1, 3), 1.0 / 3.0), atol=1e-15)
        # large logits must not overflow exp
        hot = softmax_rows(Tensor([[1000.0, 0.0]])).data
        assert np.all(np.isfinite(hot))
        np.testing.assert_allclose(hot, [[1.0, 0.0]], atol=1e-12)

    def test_softmax_sum_has_zero_gradient(self):
        # rows sum to one regardless of input, so d(sum)/dx vanishes
        x = Tensor(rng_arr(11, 3, 4, scale=2.0))
        x.requires_grad = True
        backward(sum_all(softmax_rows(x)))
        np.testing.assert_allclose(x.grad, np.zeros((3, 4)), atol=1e-12)

    def test_layer_norm_matches_scalar(self):
        x = rng_arr(4, 5, 8, scale=2.0)
        gain = rng_arr(5, 8) + 1.0
        shift = rng_arr(6, 8)
        got = layer_norm(Tensor(x), Tensor(gain), Tensor(shift)).data
        np.testing.assert_allclose(got, scalar_layer_norm(x, gain, shift), rtol=1e-12)

    def test_gelu_matches_scalar(self):
        x = rng_arr(7, 3, 4, scale=2.0)
        got = gelu(Tensor(x)).data
        want = np.vectorize(scalar_gelu)(x)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_relu(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(relu(Tensor(x)).data, [[0.0, 0.0, 2.0]])

    def test_cross_entropy_matches_scalar(self):
        import math

        logits = rng_arr(8, 6, 3, scale=2.0)
        labels = np.array([0, 2, 1, 1, 0, 2])
        got = cross_entropy_logits(Tensor(logits), labels).item()
        total = 0.0
        for i, lab in enumerate(labels):
            row = [float(v) for v in logits[i]]
            mx = max(row)
            lse = mx + math.log(sum(math.exp(v - mx) for v in row))
            total += lse - row[lab]
        np.testing.assert_allclose(got, total / 6.0, rtol=1e-12)

    def test_grouped_linear_matches_block_diagonal(self):
        from helpers import block_diag_from_grouped

        x = rng_arr(9, 5, 8)
        w = rng_arr(10, 2, 4, 3)  # G=2, din=8, dout=6
        got = grouped_linear(Tensor(x), Tensor(w)).data
        dense = block_diag_from_grouped(w)
        np.testing.assert_allclose(got, loop_matmul(x, dense), rtol=1e-13)

    def test_concat_and_cols(self):
        a = rng_arr(11, 2, 3)
        b = rng_arr(12, 4, 3)
        cat = concat_rows([Tensor(a), Tensor(b)])
        np.testing.assert_array_equal(cat.data, np.vstack([a, b]))
        back = cols(cat, 0, 3)
        assert back.data.shape == (6, 3)
        c = rng_arr(13, 2, 5)
        wide = concat_cols([Tensor(a), Tensor(c)])
        np.testing.assert_array_equal(wide.data, np.hstack([a, c]))
        np.testing.assert_array_equal(cols(wide, 3, 8).data, c)

    def test_reductions(self):
        x = rng_arr(14, 3, 4)
        np.testing.assert_allclose(
            mean_rows(Tensor(x)).data, x.mean(axis=0, keepdims=True), rtol=1e-14
        )
        np.testing.assert_allclose(sum_all(Tensor(x)).item(), x.sum(), rtol=1e-14)
        np.testing.assert_allclose(mean_all(Tensor(x)).item(), x.mean(), rtol=1e-14)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeError):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


class TestBackward:
    def test_gradients_vs_finite_difference_sweep(self):
        # random small graphs over the op set, checked coordinatewise
        for seed in range(6):
            r = np.random.default_rng(100 + seed)
            a = Tensor(r.standard_normal((3, 4)), requires_grad=True)
            b = Tensor(r.standard_normal((4, 3)), requires_grad=True)
            g = Tensor(r.standard_normal((4,)), requires_grad=True)
            s = Tensor(r.standard_normal((4,)), requires_grad=True)

            def make_loss():
                h = matmul(a, b)          # (3,3)
                h = softmax_rows(h)
                h2 = matmul(h, transpose(b))   # (3,4)
                h2 = layer_norm(h2, g, s)
                h2 = gelu(h2)
                return mean_all(mul(h2, h2))

            worst = check_gradients(make_loss, [a, b, g, s], rtol=1e-6)
            assert worst < 1e-6

    def test_grad_through_cross_entropy(self):
        r = np.random.default_rng(200)
        w = Tensor(r.standard_normal((5, 3)), requires_grad=True)
        x = Tensor(r.standard_normal((4, 5)))
        labels = np.array([0, 1, 2, 1])

        def make_loss():
            return cross_entropy_logits(matmul(x, w), labels)

        check_gradients(make_loss, [w], rtol=1e-6)

    def test_grad_grouped_linear(self):
        r = np.random.default_rng(201)
        w = Tensor(r.standard_normal((2, 3, 2)), requires_grad=True)
        x = Tensor(r.standard_normal((4, 6)))

        def make_loss():
            return mean_all(gelu(grouped_linear(x, w)))

        check_gradients(make_loss, [w], rtol=1e-6)

    def test_grad_concat_scale_relu(self):
        r = np.random.default_rng(202)
        a = Tensor(r.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(r.standard_normal((2, 3)), requires_grad=True)
        gate = Tensor(0.7, requires_grad=True)

        def make_loss():
            cat = concat_cols([mul(a, gate), relu(scale(b, 1.5))])
            return mean_all(mul(cat, cat))

        check_gradients(make_loss, [a, b, gate], rtol=1e-6)

    def test_backward_accumulates_shared_input(self):
        x = Tensor(np.array([[2.0]]), requires_grad=True)
        y = add(mul(x, x), x)  # d/dx = 2x + 1 = 5
        backward(sum_all(y))
        np.testing.assert_allclose(x.grad, [[5.0]])

    def test_double_backward_raises(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = sum_all(mul(x, x))
        backward(loss)
        with pytest.raises(GraphError):
            backward(loss)

    def test_gradients_never_alias(self):
        # add(w, w) and mul(x, x) hand one leaf the same array twice; add(a, b)
        # fans one upstream gradient out to two leaves; the interior sum h
        # adopts a gradient it receives twice. Every leaf must own its .grad
        # and no input's .data may change across forward and backward.
        r = np.random.default_rng(210)
        w, x, a, b = (Tensor(r.standard_normal((3, 4)), requires_grad=True) for _ in range(4))
        leaves = [w, x, a, b]
        before = [t.data.copy() for t in leaves]
        h = add(add(w, w), mul(x, x))
        fan = add(a, b)
        loss = sum_all(mul(add(h, h), fan))
        backward(loss)
        for t, d in zip(leaves, before):
            np.testing.assert_array_equal(t.data, d)
        grads = [t.grad for t in leaves]
        for i, gi in enumerate(grads):
            assert gi is not None
            for t in leaves:
                assert not np.shares_memory(gi, t.data)
            for gj in grads[i + 1:]:
                assert not np.shares_memory(gi, gj)
        f = 2.0 * (w.data + w.data + x.data * x.data)
        np.testing.assert_allclose(w.grad, 4.0 * (a.data + b.data), rtol=1e-15)
        np.testing.assert_allclose(x.grad, 4.0 * x.data * (a.data + b.data), rtol=1e-15)
        np.testing.assert_array_equal(a.grad, f)
        np.testing.assert_array_equal(b.grad, f)

    def test_interior_nodes_sharing_a_gradient_stay_apart(self):
        # add(p, q) hands the interior nodes p and q one array; the walk
        # order then gives each a second contribution from mul(p, q) before
        # either closure runs, so adding in place would leak one into the other
        r = np.random.default_rng(212)
        a, b = (Tensor(r.standard_normal((3, 4)), requires_grad=True) for _ in range(2))
        c1, c2 = r.standard_normal((3, 4)), r.standard_normal((3, 4))
        p, q = scale(a, 1.0), scale(b, 1.0)
        backward(sum_all(add(mul(add(p, q), Tensor(c1)), mul(mul(p, q), Tensor(c2)))))
        np.testing.assert_array_equal(a.grad, c1 + c2 * b.data)
        np.testing.assert_array_equal(b.grad, c1 + c2 * a.data)

    def test_backward_releases_interior_state(self):
        r = np.random.default_rng(211)
        x = Tensor(r.standard_normal((2, 3, 4)))
        w = Tensor(r.standard_normal((4, 4)), requires_grad=True)
        gain, shift = Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)
        h = gelu(layer_norm(matmul(x, w), gain, shift))
        loss = mean_all(attention(h, h, h, heads=2))
        interior, leaves, stack, seen = [], [], [loss], set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            (interior if node._parents else leaves).append(node)
            stack.extend(node._parents)
        assert len(interior) == 5 and all(n._backward is not None for n in interior)
        backward(loss)
        for node in interior:
            assert node.grad is None and node._backward is None
        assert {id(t) for t in leaves if t.requires_grad} == {id(w), id(gain), id(shift)}
        for t in (w, gain, shift):
            assert t.grad is not None and t.grad.shape == t.shape
        with pytest.raises(GraphError):
            backward(loss)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(GraphError):
            backward(mul(x, x))


class TestAttention:
    @staticmethod
    def per_head(q, k, v, heads, scale_=None):
        """Scalar-loop attention, one head at a time, heads joined by column."""
        dh = q.shape[1] // heads
        dv = v.shape[1] // heads
        c = 1.0 / np.sqrt(dh) if scale_ is None else scale_
        outs = []
        for h in range(heads):
            scores = loop_matmul(q[:, h * dh:(h + 1) * dh], k[:, h * dh:(h + 1) * dh].T) * c
            outs.append(loop_matmul(scalar_softmax_rows(scores), v[:, h * dv:(h + 1) * dv]))
        return np.hstack(outs)

    def test_matches_per_head_oracle(self):
        q, k, v = rng_arr(300, 4, 6), rng_arr(301, 5, 6), rng_arr(302, 5, 6)
        for heads in (1, 2, 3):
            got = attention(Tensor(q), Tensor(k), Tensor(v), heads).data
            np.testing.assert_allclose(got, self.per_head(q, k, v, heads), rtol=1e-12)
        got = attention(Tensor(q), Tensor(k), Tensor(v), 2, scale=1.0).data
        np.testing.assert_allclose(got, self.per_head(q, k, v, 2, 1.0), rtol=1e-12)

    def test_batch_rows_match_single_samples(self):
        # a 2-D query broadcasts over a batch of keys and values
        q, k, v = rng_arr(303, 3, 4), rng_arr(304, 5, 2, 4), rng_arr(305, 5, 2, 4)
        got = attention(Tensor(q), Tensor(k), Tensor(v), 2).data
        assert got.shape == (5, 3, 4)
        for b in range(5):
            one = attention(Tensor(q), Tensor(k[b]), Tensor(v[b]), 2).data
            np.testing.assert_array_equal(got[b], one)

    def test_macs_and_softmax_match_per_head_ops(self):
        # per head: (nq x dh)(dh x nk) + (nq x nk)(nk x dh), softmax nq*nk
        with count_macs() as c:
            attention(Tensor(np.ones((3, 8))), Tensor(np.ones((4, 5, 8))), Tensor(np.ones((4, 5, 8))), 2)
        assert c.macs == 4 * 2 * (3 * 4 * 5 + 3 * 5 * 4)
        assert c.softmax_elems == 4 * 2 * 3 * 5

    def test_gradients_with_broadcast_query(self):
        r = np.random.default_rng(306)
        q = Tensor(r.standard_normal((3, 4)), requires_grad=True)
        k = Tensor(r.standard_normal((2, 5, 4)), requires_grad=True)
        v = Tensor(r.standard_normal((2, 5, 6)), requires_grad=True)

        def make_loss():
            out = attention(q, k, v, 2)
            return mean_all(mul(out, out))

        check_gradients(make_loss, [q, k, v], rtol=1e-6)

    def test_rejects_bad_shapes_and_non_finite_scores(self):
        x = Tensor(np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            attention(x, Tensor(np.zeros((3, 6))), Tensor(np.zeros((3, 6))))
        with pytest.raises(ShapeError):
            attention(x, Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4))))
        with pytest.raises(ShapeError):
            attention(x, x, x, heads=3)
        with pytest.raises(ShapeError):
            attention(Tensor(np.zeros((2, 2, 4))), Tensor(np.zeros((3, 2, 4))), Tensor(np.zeros((3, 2, 4))))
        with pytest.raises(ValueError, match="non-finite"):
            ones = Tensor(np.ones((2, 4)))
            attention(Tensor(np.full((2, 4), np.inf)), ones, ones)


class TestBatchedOps:
    def test_forward_matches_per_sample(self):
        x = rng_arr(310, 3, 4, 6)
        w, b = rng_arr(311, 6, 5), rng_arr(312, 5)
        gw = rng_arr(313, 2, 3, 2)
        gain, shift = rng_arr(314, 6), rng_arr(315, 6)
        lat = rng_arr(316, 4, 6)
        for i in range(3):
            one = Tensor(x[i])
            np.testing.assert_array_equal(matmul(Tensor(x), Tensor(w)).data[i], matmul(one, Tensor(w)).data)
            np.testing.assert_array_equal(layer_norm(Tensor(x), Tensor(gain), Tensor(shift)).data[i],
                                          layer_norm(one, Tensor(gain), Tensor(shift)).data)
            np.testing.assert_array_equal(grouped_linear(Tensor(x), Tensor(gw), Tensor(b[:4])).data[i],
                                          grouped_linear(one, Tensor(gw), Tensor(b[:4])).data)
            np.testing.assert_array_equal(mean_rows(Tensor(x)).data[i], mean_rows(one).data)
            np.testing.assert_array_equal(add(Tensor(lat), Tensor(x)).data[i], lat + x[i])

    def test_shared_parameter_gradients_sum_over_batch(self):
        r = np.random.default_rng(317)
        x = Tensor(r.standard_normal((2, 3, 4)), requires_grad=True)
        lat = Tensor(r.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(r.standard_normal((4, 4)), requires_grad=True)
        gw = Tensor(r.standard_normal((2, 2, 2)), requires_grad=True)
        bias = Tensor(r.standard_normal(4), requires_grad=True)
        gain = Tensor(r.standard_normal(4), requires_grad=True)
        shift = Tensor(r.standard_normal(4), requires_grad=True)
        head = Tensor(r.standard_normal((8, 2)), requires_grad=True)

        def make_loss():
            h = layer_norm(add(x, lat), gain, shift)
            h = gelu(add(matmul(h, w), bias))
            h = grouped_linear(h, gw, bias)
            pooled = concat_cols([mean_rows(h), mean_rows(x)])
            logits = reshape(matmul(pooled, head), (2, 2))
            return cross_entropy_logits(logits, np.array([0, 1]))

        check_gradients(make_loss, [x, lat, w, gw, bias, gain, shift, head], rtol=1e-6)

    def test_batched_matmul_macs(self):
        with count_macs() as c:
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 5))))
        assert c.macs == 2 * 3 * 4 * 5

    def test_batched_shape_errors(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4))))
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4, 5))))
        with pytest.raises(ShapeError):
            concat_cols([Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4)))])
        with pytest.raises(ShapeError):
            reshape(Tensor(np.ones((2, 3))), (4, 2))


class TestNoGrad:
    def test_records_no_graph(self):
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        with no_grad():
            out = gelu(matmul(Tensor(np.ones((2, 3))), w))
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        np.testing.assert_allclose(out.data, scalar_gelu(3.0))
        assert matmul(Tensor(np.ones((2, 3))), w).requires_grad

    def test_state_restored_after_exception_and_nesting(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        assert mul(w, w).requires_grad
        with no_grad():
            with no_grad():
                pass
            assert not mul(w, w).requires_grad
        assert mul(w, w).requires_grad


class TestMacCounter:
    def test_matmul_macs(self):
        with count_macs() as c:
            matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((4, 5))))
        assert c.macs == 3 * 4 * 5
        assert c.softmax_elems == 0

    def test_softmax_elements(self):
        with count_macs() as c:
            softmax_rows(Tensor(np.ones((3, 7))))
        assert c.softmax_elems == 21
        assert c.macs == 0

    def test_grouped_linear_macs(self):
        # block-diagonal product: G * n * (din/G) * (dout/G)
        with count_macs() as c:
            grouped_linear(Tensor(np.ones((5, 8))), Tensor(np.ones((2, 4, 3))))
        assert c.macs == 2 * 5 * 4 * 3

    def test_counter_nesting_inner_only(self):
        with count_macs() as outer:
            matmul(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))
            with count_macs() as inner:
                matmul(Tensor(np.ones((3, 3))), Tensor(np.ones((3, 3))))
        assert inner.macs == 27
        assert outer.macs == 8

    def test_no_counting_outside_context(self):
        c = MacCounter()
        matmul(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))
        assert c.macs == 0


class TestRng:
    def test_reproducible_streams(self):
        a = Rng(7, 3).normal((4, 4))
        b = Rng(7, 3).normal((4, 4))
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = Rng(7, 3).normal((4, 4))
        b = Rng(7, 4).normal((4, 4))
        assert not np.array_equal(a, b)

    def test_named_stream_stable(self):
        a = Rng.for_name(0, "alpha").normal((3,))
        b = Rng.for_name(0, "alpha").normal((3,))
        c = Rng.for_name(0, "beta").normal((3,))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_name_order_independent(self):
        # drawing for one name never perturbs another name's stream
        first = Rng.for_name(5, "x").normal((2, 2))
        Rng.for_name(5, "y").normal((100, 100))
        again = Rng.for_name(5, "x").normal((2, 2))
        np.testing.assert_array_equal(first, again)
