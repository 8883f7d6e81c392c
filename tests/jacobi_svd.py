"""One-sided Jacobi singular value decomposition, the test oracle for the
LAPACK SVD behind `lscd.align.procrustes_rotation`.

One-sided Jacobi is simple, very accurate and dependency-free: plane
rotations applied to the columns of a working copy (and accumulated in v)
drive all column pairs orthogonal, giving m = u @ diag(s) @ vt. Working on
the columns themselves (rather than a recomputed Gram matrix) keeps each
column accurate relative to its own norm, which is what lets pairs of small
singular values meet the tight convergence tolerance.

Rotations are organized in round-robin rounds of pairwise-disjoint column
pairs so each round applies as one vectorized update. Columns whose norms
fall to roundoff level (rank-deficient input) are frozen rather than chased
below machine precision.
"""

from __future__ import annotations

import numpy as np


class SvdConvergenceError(RuntimeError):
    """Jacobi SVD failed to converge within the sweep budget."""

    def __init__(self, message: str, sweeps: int):
        super().__init__(message)
        self.sweeps = sweeps


DEFAULT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 30

_EPS = np.finfo(np.float64).eps


def jacobi_svd(
    matrix: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD via one-sided Jacobi rotations.

    Returns (u, s, vt) with singular values sorted descending. Convergence is
    reached once a full sweep needs no rotation, i.e. every normalized column
    product |a_i . a_j| / (|a_i| |a_j|) is at or below `tol` (numerically
    zero columns excepted); exceeding `max_sweeps` raises
    SvdConvergenceError.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    transposed = m.shape[0] < m.shape[1]
    av = np.array(m.T if transposed else m, order="F")  # columns contiguous
    n_cols = av.shape[1]

    vt = np.eye(n_cols)  # rows of vt are the accumulated right vectors
    rounds = _round_robin(n_cols)
    converged = n_cols < 2
    for _ in range(max_sweeps):
        if converged:
            break
        sq = np.einsum("ij,ij->j", av, av)
        floor = sq.max(initial=0.0) * (n_cols * _EPS) ** 2
        rotations = 0
        for ii, jj in rounds:
            ci = av[:, ii]
            cj = av[:, jj]
            gamma = np.einsum("ij,ij->j", ci, cj)
            alpha = sq[ii]
            beta = sq[jj]
            active = (np.abs(gamma) > tol * np.sqrt(alpha * beta)) & (
                np.minimum(alpha, beta) > floor
            )
            if not active.any():
                continue
            ai = ii[active]
            aj = jj[active]
            gamma = gamma[active]
            zeta = (beta[active] - alpha[active]) / (2.0 * gamma)
            t = np.where(
                zeta == 0.0,
                1.0,
                np.sign(zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta)),
            )
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            ci = ci[:, active]
            cj = cj[:, active]
            av[:, ai] = c * ci - s * cj
            av[:, aj] = s * ci + c * cj
            sq[ai] = alpha[active] - t * gamma
            sq[aj] = beta[active] + t * gamma
            _rotate_rows(vt, ai, aj, c, s)
            rotations += len(ai)
        converged = rotations == 0
    if not converged and _max_ratio(av) > tol:
        raise SvdConvergenceError(
            f"one-sided Jacobi did not converge after {max_sweeps} sweeps "
            f"(tol={tol:g})",
            sweeps=max_sweeps,
        )

    norms = np.linalg.norm(av, axis=0)
    order = np.argsort(-norms, kind="stable")
    s_values = norms[order]
    av = av[:, order]
    vt = vt[order]

    u = np.zeros((av.shape[0], n_cols))
    cutoff = s_values[0] * av.shape[0] * _EPS if n_cols else 0.0
    nonzero = s_values > cutoff
    u[:, nonzero] = av[:, nonzero] / s_values[nonzero]
    if not nonzero.all():
        _complete_orthonormal(u, int(nonzero.sum()))

    if transposed:
        return vt.T, s_values, u.T
    return u, s_values, vt


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Circle-method schedule: rounds of disjoint index pairs that together
    cover every unordered pair exactly once."""
    if n < 2:
        return []
    players = list(range(n)) + ([n] if n % 2 else [])
    m = len(players)
    rounds = []
    arr = players[:]
    for _ in range(m - 1):
        ii, jj = [], []
        for k in range(m // 2):
            x, y = arr[k], arr[m - 1 - k]
            if x >= n or y >= n:  # dummy from odd padding
                continue
            ii.append(min(x, y))
            jj.append(max(x, y))
        rounds.append((np.array(ii, dtype=np.intp), np.array(jj, dtype=np.intp)))
        arr = [arr[0], arr[-1]] + arr[1:-1]
    return rounds


def _max_ratio(av: np.ndarray) -> float:
    """Largest normalized off-diagonal column product, ignoring numerically
    zero columns."""
    g = av.T @ av
    diag = g.diagonal().copy()
    floor = diag.max(initial=0.0) * (av.shape[1] * _EPS) ** 2
    dead = diag <= floor
    denom = np.sqrt(np.outer(diag, diag))
    denom[dead, :] = np.inf
    denom[:, dead] = np.inf
    denom[denom == 0.0] = np.inf
    ratio = np.abs(g) / denom
    np.fill_diagonal(ratio, 0.0)
    return float(ratio.max(initial=0.0))


def _rotate_rows(
    x: np.ndarray, ii: np.ndarray, jj: np.ndarray, c: np.ndarray, s: np.ndarray
) -> None:
    """Apply disjoint plane rotations to rows ii, jj of x (vectorized)."""
    ri = x[ii]
    rj = x[jj]
    x[ii] = c[:, None] * ri - s[:, None] * rj
    x[jj] = s[:, None] * ri + c[:, None] * rj


def _complete_orthonormal(u: np.ndarray, rank: int) -> None:
    """Fill columns rank.. of u with an orthonormal completion (in place)."""
    n_rows, n_cols = u.shape
    col = rank
    for k in range(n_rows):
        if col >= n_cols:
            return
        cand = np.zeros(n_rows)
        cand[k] = 1.0
        cand -= u[:, :col] @ (u[:, :col].T @ cand)
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            u[:, col] = cand / norm
            col += 1
    if col < n_cols:
        raise SvdConvergenceError(
            "failed to complete an orthonormal basis for rank-deficient input",
            sweeps=0,
        )
