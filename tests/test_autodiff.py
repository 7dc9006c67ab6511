"""Reverse-mode tape: every op's gradient against central finite differences."""

from __future__ import annotations

import numpy as np
import pytest

from ifmixup.autodiff import concat, constant, parameter, segment_matmul


def fd_grad(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function at x, elementwise."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += step
        xm[idx] -= step
        g[idx] = (f(xp) - f(xm)) / (2 * step)
        it.iternext()
    return g


def check_op(build, x: np.ndarray, tol: float = 1e-6) -> None:
    """build(param_tensor) -> scalar Tensor; compares tape grad to FD."""
    p = parameter(x.copy())
    out = build(p)
    out.backward()
    analytic = p.grad.copy()

    def value(arr: np.ndarray) -> float:
        return float(build(parameter(arr)).value)

    fd = fd_grad(value, x)
    assert np.max(np.abs(analytic - fd)) < tol


RNG = np.random.default_rng(11)


class TestElementwiseOps:
    def test_add(self):
        b = constant(RNG.normal(size=(3, 4)))
        check_op(lambda p: (p + b).sum(), RNG.normal(size=(3, 4)))

    def test_add_broadcast_row(self):
        # bias rows broadcast over the batch; gradient must unbroadcast back
        x = constant(RNG.normal(size=(5, 3)))
        check_op(lambda p: (x + p).sum(), RNG.normal(size=(1, 3)))

    def test_mul(self):
        b = constant(RNG.normal(size=(3, 4)))
        check_op(lambda p: (p * b * p).sum(), RNG.normal(size=(3, 4)))

    def test_scale(self):
        check_op(lambda p: p.scale(-2.5).sum(), RNG.normal(size=(2, 2)))

    def test_relu_away_from_kink(self):
        x = RNG.normal(size=(4, 4))
        x[np.abs(x) < 0.2] = 0.5  # keep FD probes off the kink
        check_op(lambda p: (p.relu() * constant(np.ones_like(x))).sum(), x)

    def test_relu_dead_region_zero_grad(self):
        p = parameter(np.full((2, 2), -1.0))
        out = p.relu().sum()
        out.backward()
        assert np.array_equal(p.grad, np.zeros((2, 2)))


class TestMatmulAndShape:
    def test_matmul_left(self):
        b = constant(RNG.normal(size=(4, 2)))
        check_op(lambda p: (p @ b).sum(), RNG.normal(size=(3, 4)))

    def test_matmul_right(self):
        a = constant(RNG.normal(size=(3, 4)))
        check_op(lambda p: (a @ p).sum(), RNG.normal(size=(4, 2)))

    def test_slice_rows(self):
        w = constant(RNG.normal(size=(2, 4)))
        check_op(lambda p: (p.slice_rows(1, 3) * w).sum(), RNG.normal(size=(5, 4)))

    def test_concat(self):
        w = constant(RNG.normal(size=(5, 3)))

        def build(p):
            parts = [p.slice_rows(0, 2), p.slice_rows(2, 5)]
            return (concat(parts, axis=0) * w).sum()

        check_op(build, RNG.normal(size=(5, 3)))


class TestSegmentMatmul:
    # segments of 2, 1 and 3 rows: the first and the last share a stack
    # padded to 3 rows, the middle one has a stack of its own
    SIZES = (2, 1, 3)
    SLOTS = ((0, 0), (1, 0), (0, 1))  # (stack, slot) of each segment
    ROWS = np.array([0, 1, 6, 3, 4, 5])

    def blocks(self):
        blocks = [np.zeros((2, 3, 3)), np.zeros((1, 1, 1))]
        for n, (k, slot) in zip(self.SIZES, self.SLOTS):
            blocks[k][slot, :n, :n] = RNG.normal(size=(n, n))
        return blocks

    def test_matches_per_segment_products(self):
        blocks = self.blocks()
        h = RNG.normal(size=(6, 4))
        out = segment_matmul(blocks, constant(h), self.ROWS).value
        start = 0
        for n, (k, slot) in zip(self.SIZES, self.SLOTS):
            want = blocks[k][slot, :n, :n] @ h[start : start + n]
            assert np.max(np.abs(out[start : start + n] - want)) < 1e-12
            start += n

    def test_grad(self):
        blocks = self.blocks()
        w = constant(RNG.normal(size=(6, 4)))
        check_op(lambda p: (segment_matmul(blocks, p, self.ROWS) * w).sum(), RNG.normal(size=(6, 4)))

    def test_asymmetric_blocks_transpose_on_backward(self):
        blocks = [np.zeros((1, 2, 2))]
        blocks[0][0] = [[0.0, 1.0], [0.0, 0.0]]  # row 0 reads row 1; nothing reads row 0
        p = parameter(np.array([[1.0], [2.0]]))
        segment_matmul(blocks, p, np.array([0, 1])).sum().backward()
        assert np.array_equal(p.grad, [[0.0], [1.0]])


class TestSoftmaxFamily:
    def test_log_softmax_grad(self):
        w = constant(RNG.normal(size=(2, 5)))
        check_op(lambda p: (p.log_softmax() * w).sum(), RNG.normal(size=(2, 5)))

    def test_log_softmax_matches_log_of_softmax(self):
        x = RNG.normal(size=(3, 4))
        a = constant(x).log_softmax().value
        ex = np.exp(x)
        b = np.log(ex / ex.sum(axis=1, keepdims=True))
        assert np.max(np.abs(a - b)) < 1e-12

    def test_log_softmax_stable_at_extremes(self):
        # plain softmax underflows the small class to 0 here; log_softmax must not
        x = np.array([[800.0, -800.0]])
        out = constant(x).log_softmax().value
        assert np.isfinite(out).all()
        assert out[0, 1] == pytest.approx(-1600.0)


class TestTapeMechanics:
    def test_gradient_accumulates_over_reuse(self):
        p = parameter(np.array([[2.0]]))
        out = (p * p).sum() + p.sum()  # d/dp (p^2 + p) = 2p + 1 = 5
        out.backward()
        assert p.grad[0, 0] == pytest.approx(5.0)

    def test_backward_requires_scalar(self):
        p = parameter(np.ones((2, 2)))
        with pytest.raises(ValueError):
            (p * p).backward()

    def test_diamond_graph(self):
        # two paths from p to the output; both must contribute
        p = parameter(np.array([[3.0]]))
        a = p.scale(2.0)
        b = p.scale(5.0)
        out = (a + b).sum()
        out.backward()
        assert p.grad[0, 0] == pytest.approx(7.0)

    def test_constant_gets_no_grad(self):
        c = constant(np.ones((2, 2)))
        p = parameter(np.ones((2, 2)))
        (c * p).sum().backward()
        assert c.grad is None or not c.requires_grad

    def test_self_add_sums_both_parents(self):
        p = parameter(np.array([[1.0, -2.0]]))
        (p + p).sum().backward()
        assert np.array_equal(p.grad, [[2.0, 2.0]])

    def test_tensor_read_by_two_parents(self):
        p = parameter(np.array([[1.0, -2.0]]))
        a = p * constant(np.array([[3.0, 3.0]]))
        b = p.relu()
        (a + b).sum().backward()
        assert np.array_equal(p.grad, [[4.0, 3.0]])

    def test_sibling_grad_survives_a_later_accumulation(self):
        # add's backward hands one array to both parents; x then gets more
        p = parameter(np.array([[1.0]]))
        q = parameter(np.array([[1.0]]))
        x = p.scale(1.0)
        ((x + q).sum() + x.scale(3.0).sum()).backward()
        assert p.grad[0, 0] == 4.0 and q.grad[0, 0] == 1.0

    def test_stored_grad_does_not_alias_incoming(self):
        p = parameter(np.zeros(3))
        g = np.array([1.0, 2.0, 3.0])
        p._accumulate(g)
        assert not np.shares_memory(p.grad, g)
        p._accumulate(g)
        assert np.array_equal(g, [1.0, 2.0, 3.0])
        assert np.array_equal(p.grad, [2.0, 4.0, 6.0])
