"""A fixed reference kernel that measures how fast the host is right now.

The host is a shared VM whose speed drifts by up to 2x over minutes, with
little steal time to show for it, so two runs of the same code an hour apart
can differ by more than any useful bound. The benchmark runs this kernel
before every part of a unit and reports each unit's wall time as a multiple
of the kernel's wall time over the same stretch: a drift that slows both
cancels out, while a change to fedsel moves only the unit.

The kernel is the benchmark's own code, not fedsel's, and does the same kind
of work as fedsel's training loop: mini-batch SGD with momentum on a 16-32-5
ReLU MLP, batch 16, one numpy call per step of the forward and backward pass.
Its data and weights come from a fixed seed, never from ``--seed``, so it does
the same work in every run. A change to fedsel cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

STEPS = 6000
ROWS = 1280
BATCH = 16
LAYERS = (16, 32, 5)


def _problem():
    rng = np.random.default_rng(20240819)
    x = rng.standard_normal((ROWS, LAYERS[0]))
    y = rng.integers(0, LAYERS[-1], ROWS)
    w1 = rng.standard_normal(LAYERS[:2]) * 0.3
    w2 = rng.standard_normal(LAYERS[1:]) * 0.3
    return x, y, [w1, np.zeros(LAYERS[1]), w2, np.zeros(LAYERS[2])]


def _train() -> None:
    """Train for STEPS mini-batches from the same start every time."""
    x, y, params = _problem()
    velocity = [np.zeros_like(p) for p in params]
    rows = np.arange(BATCH)
    lr, momentum = 1e-3, 0.9
    for step in range(STEPS):
        lo = (step * BATCH) % ROWS
        xb, yb = x[lo : lo + BATCH], y[lo : lo + BATCH]
        w1, b1, w2, b2 = params
        h = np.maximum(xb @ w1 + b1, 0.0)
        z = h @ w2 + b2
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, yb] -= 1.0
        p /= BATCH
        dh = (p @ w2.T) * (h > 0.0)
        grads = (xb.T @ dh, dh.sum(axis=0), h.T @ p, p.sum(axis=0))
        for param, vel, grad in zip(params, velocity, grads):
            vel *= momentum
            vel -= lr * grad
            param += vel


def run() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    _train()
    return time.perf_counter() - t0
