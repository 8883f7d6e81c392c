"""A fixed reference workload that measures the machine, not lscd.

    python3 benchmarks/reference.py

The benchmark runs this four times per cycle, as a fresh process like every
`run-all`, and divides lscd's wall times by the median of its wall times in
the same run. The shared host's speed drifts by tens of percent from one
minute to the next; the ratio cancels what the drift does to both, so it
moves only when lscd itself gets faster or slower. The work imitates the
mix of a `run-all`: interpreter start-up and the numpy import, token
counting in pure Python, SGNS-style gathered dot products and scatter-adds,
and small dense linear algebra. It never imports lscd, so a change to
`src/` cannot move it. It prints one checksum line, which is the same on
every run.
"""

from __future__ import annotations

import numpy as np


def count_tokens(rng: np.random.Generator, sentences: int) -> dict[str, int]:
    words = [f"w{i:03d}" for i in range(400)]
    draws = rng.integers(0, len(words), size=(sentences, 10))
    counts: dict[str, int] = {}
    for row in draws:
        line = " ".join(words[i] for i in row)
        for token in line.split():
            counts[token] = counts.get(token, 0) + 1
    return counts


def sgns_steps(rng: np.random.Generator, steps: int) -> float:
    vocab, dim, batch, negatives = 400, 32, 256, 5
    center = rng.standard_normal((vocab, dim)) * 0.1
    context = rng.standard_normal((vocab, dim)) * 0.1
    for _ in range(steps):
        ids = rng.integers(0, vocab, size=batch)
        ctx = rng.integers(0, vocab, size=batch)
        neg = rng.integers(0, vocab, size=(batch, negatives))
        v, u, n = center[ids], context[ctx], context[neg]
        pos = 1.0 / (1.0 + np.exp(-np.einsum("bd,bd->b", v, u)))
        negz = 1.0 / (1.0 + np.exp(np.einsum("bkd,bd->bk", n, v)))
        grad = (1.0 - pos)[:, None] * u - np.einsum("bk,bkd->bd", 1.0 - negz, n)
        np.add.at(center, ids, 0.01 * grad)
    return float(np.abs(center).sum())


def dense(rng: np.random.Generator, size: int) -> float:
    a = rng.standard_normal((size, size))
    u, _, vt = np.linalg.svd(a.T @ a)
    return float(np.abs(u @ vt).sum())


def main() -> int:
    rng = np.random.default_rng(2005)
    counts = count_tokens(rng, 20_000)
    checksum = sum(counts.values()) + sgns_steps(rng, 400) + dense(rng, 200)
    print(f"reference {checksum:.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
