"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy array and records the operation that produced it.
Calling ``backward()`` on a scalar result walks the tape in reverse
topological order and accumulates gradients into every tensor created with
``requires_grad=True``. Only the handful of operations needed by the graph
models is implemented: affine maps, elementwise arithmetic, ReLU, sums,
row slicing/concatenation, per-graph aggregation over a packed batch of
graphs, and a numerically safe log-softmax for the cross-entropy head.

Gradients accumulate across calls (the usual convention), so parameters that
participate in several forward passes per step receive the summed gradient.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class Tensor:
    """A node on the tape: a value, a gradient slot, and a backward rule."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        value: np.ndarray,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # a copy: the caller may hand the same array to several parents
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded tape."""
        if self.value.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.value))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "Tensor") -> "Tensor":
        a, b = self, other

        def bw(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(g @ b.value.T)
            if b.requires_grad:
                b._accumulate(a.value.T @ g)

        return Tensor(a.value @ b.value, parents=(a, b), backward=bw)

    def __add__(self, other: "Tensor") -> "Tensor":
        a, b = self, other

        def bw(g: np.ndarray) -> None:
            a._accumulate(_unbroadcast(g, a.value.shape))
            b._accumulate(_unbroadcast(g, b.value.shape))

        return Tensor(a.value + b.value, parents=(a, b), backward=bw)

    def __mul__(self, other: "Tensor") -> "Tensor":
        a, b = self, other

        def bw(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.value, a.value.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.value, b.value.shape))

        return Tensor(a.value * b.value, parents=(a, b), backward=bw)

    def scale(self, c: float) -> "Tensor":
        a = self

        def bw(g: np.ndarray) -> None:
            a._accumulate(c * g)

        return Tensor(c * a.value, parents=(a,), backward=bw)

    def relu(self) -> "Tensor":
        a = self
        mask = a.value > 0.0

        def bw(g: np.ndarray) -> None:
            a._accumulate(g * mask)

        return Tensor(np.where(mask, a.value, 0.0), parents=(a,), backward=bw)

    def sum(self) -> "Tensor":
        a = self

        def bw(g: np.ndarray) -> None:
            a._accumulate(np.broadcast_to(g, a.value.shape))

        return Tensor(a.value.sum(), parents=(a,), backward=bw)

    def slice_rows(self, start: int, stop: int) -> "Tensor":
        a = self

        def bw(g: np.ndarray) -> None:
            full = np.zeros_like(a.value)
            full[start:stop] = g
            a._accumulate(full)

        return Tensor(a.value[start:stop], parents=(a,), backward=bw)

    def log_softmax(self) -> "Tensor":
        """Row-wise log softmax via logsumexp; smooth, so gradients never
        vanish even when the plain softmax saturates to 0/1."""
        a = self
        shifted = a.value - a.value.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        out = shifted - lse
        soft = np.exp(out)

        def bw(g: np.ndarray) -> None:
            a._accumulate(g - soft * g.sum(axis=-1, keepdims=True))

        return Tensor(out, parents=(a,), backward=bw)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, n in enumerate(shape):
        if n == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    parts = list(tensors)
    sizes = [t.value.shape[axis] for t in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g: np.ndarray) -> None:
        for t, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            t._accumulate(g[tuple(idx)])

    return Tensor(
        np.concatenate([t.value for t in parts], axis=axis), parents=tuple(parts), backward=bw
    )


def segment_matmul(blocks: list[np.ndarray], h: Tensor, rows: np.ndarray) -> Tensor:
    """``block_b @ h_b`` for every segment ``h_b`` of the rows of ``h``.

    ``blocks`` is a list of constant ``(B_k, n_k, n_k)`` stacks. Laid end to
    end they give ``sum_k B_k * n_k`` padded rows, ``n_k`` per block: the
    segment's own rows first, zero rows after. ``rows[i]`` is the padded
    position of row ``i`` of ``h``. The rows are scattered into the padded
    layout, each stack is multiplied with one ``np.matmul``, and the result
    is gathered back; backward does the same with the transposed blocks.
    """
    total = sum(stack.shape[0] * stack.shape[1] for stack in blocks)

    def batched(stacks: list[np.ndarray], x: np.ndarray) -> np.ndarray:
        padded = np.zeros((total, x.shape[1]))
        padded[rows] = x
        start = 0
        for mats in stacks:
            count, n, _ = mats.shape
            stop = start + count * n
            segments = padded[start:stop].reshape(count, n, -1)
            padded[start:stop] = np.matmul(mats, segments).reshape(count * n, -1)
            start = stop
        return padded[rows]

    def bw(g: np.ndarray) -> None:
        h._accumulate(batched([stack.transpose(0, 2, 1) for stack in blocks], g))

    return Tensor(batched(blocks, h.value), parents=(h,), backward=bw)


def constant(value: np.ndarray) -> Tensor:
    return Tensor(np.asarray(value, dtype=np.float64))


def parameter(value: np.ndarray) -> Tensor:
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
