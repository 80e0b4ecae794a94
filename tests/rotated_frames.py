"""Frames whose completion is turned by a fixed orthogonal matrix.

A frame sum must not depend on which frame of the complement of its
seeds it is taken over; this helper supplies another one, the same at
every point.
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
