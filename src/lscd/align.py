"""Length-normalization, mean-centering and orthogonal Procrustes alignment
of two embedding spaces.

The rotation is fit on the full vocabulary intersection and maps the first
space's row vectors into the second space (right-multiplication); it comes
from numpy's LAPACK SVD of the cross-covariance matrix. Distances are
direction-independent; the direction is fixed for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import UnderdeterminedError, ZeroNormError
from .sgns import EmbeddingSpace


@dataclass
class AlignedPair:
    """Two preprocessed spaces plus the orthogonal rotation fit between them."""

    space_t1: EmbeddingSpace
    space_t2: EmbeddingSpace
    rotation: np.ndarray
    shared_vocabulary: list[str]


def shared_vocabulary(
    space_t1: EmbeddingSpace, space_t2: EmbeddingSpace
) -> list[str]:
    """Vocabulary intersection, ordered by the first space's word order."""
    other = space_t2.word_ids
    return [w for w in space_t1.words if w in other]


def length_normalize(
    space: EmbeddingSpace, required: list[str] | tuple[str, ...] = ()
) -> EmbeddingSpace:
    """Scale every row to unit L2 norm.

    Zero-norm rows are left at zero unless the word is listed in `required`
    (the shared vocabulary), in which case normalization is impossible and a
    ZeroNormError naming the word is raised.
    """
    norms = np.linalg.norm(space.vectors, axis=1)
    zero = norms == 0.0
    if zero.any():
        required_set = set(required)
        for i in np.nonzero(zero)[0]:
            word = space.words[int(i)]
            if word in required_set:
                raise ZeroNormError(
                    f"cannot length-normalize zero vector for shared word {word!r}"
                )
    safe = np.where(zero, 1.0, norms)
    vectors = space.vectors / safe[:, None]
    return _with_vectors(space, vectors)


def mean_center(space: EmbeddingSpace) -> EmbeddingSpace:
    """Subtract the column mean from every row."""
    if len(space.words) == 0:
        raise ValueError("cannot center an empty space")
    vectors = space.vectors - space.vectors.mean(axis=0, keepdims=True)
    return _with_vectors(space, vectors)


def procrustes_rotation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthogonal matrix W minimizing ||a @ W - b||_F for paired rows a, b.

    W = u @ vt where u, s, vt is the SVD of a.T @ b.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"paired matrices differ in shape: {a.shape} vs {b.shape}")
    u, _, vt = np.linalg.svd(a.T @ b)
    return u @ vt


def procrustes(space_t1: EmbeddingSpace, space_t2: EmbeddingSpace) -> AlignedPair:
    """Fit the rotation on the vocabulary intersection of two preprocessed
    spaces. Requires at least `dimension` shared words, otherwise the
    orthogonal fit is under-determined."""
    shared = shared_vocabulary(space_t1, space_t2)
    d = space_t1.dimension
    if space_t2.dimension != d:
        raise ValueError("spaces have different dimensionality")
    if len(shared) < d:
        raise UnderdeterminedError(
            f"{len(shared)} shared words is fewer than dimension {d}"
        )
    rows_t1 = np.array([space_t1.word_ids[w] for w in shared], dtype=np.int64)
    rows_t2 = np.array([space_t2.word_ids[w] for w in shared], dtype=np.int64)
    rotation = procrustes_rotation(
        space_t1.vectors[rows_t1], space_t2.vectors[rows_t2]
    )
    return AlignedPair(
        space_t1=space_t1,
        space_t2=space_t2,
        rotation=rotation,
        shared_vocabulary=shared,
    )


def align(space_t1: EmbeddingSpace, space_t2: EmbeddingSpace) -> AlignedPair:
    """Length-normalize, then mean-center both spaces, and fit the rotation
    on their intersection."""
    shared = shared_vocabulary(space_t1, space_t2)
    s1 = mean_center(length_normalize(space_t1, required=shared))
    s2 = mean_center(length_normalize(space_t2, required=shared))
    return procrustes(s1, s2)


def _with_vectors(space: EmbeddingSpace, vectors: np.ndarray) -> EmbeddingSpace:
    return replace(space, vectors=vectors)
