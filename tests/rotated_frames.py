"""Frames whose completion is turned by a fixed orthogonal matrix.

A check built on orthonormal frames must not depend on which frame of
the complement of its seeds it is given; these helpers supply another
one, the same at every point.
"""

import numpy as np

ROTATION_SEED = 2024


def rotate_completion(frames, k):
    """frames (..., m, m+1) with rows k.. replaced by Q·rows[k:], for a
    seeded orthogonal (m−k)×(m−k) matrix Q."""
    n = frames.shape[-2] - k
    q, _ = np.linalg.qr(np.random.default_rng(ROTATION_SEED).standard_normal((n, n)))
    out = np.array(frames, dtype=float)
    out[..., k:, :] = q @ out[..., k:, :]
    return out


def rotated_frame_batch(frame_batch):
    """``frame_batch`` with the completion after the seeds rotated."""
    def rotated(x, seeds=None):
        return rotate_completion(frame_batch(x, seeds),
                                 0 if seeds is None else np.shape(seeds)[-2])
    return rotated
