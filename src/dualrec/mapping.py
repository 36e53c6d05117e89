"""Orthogonal mapping between the user-embedding spaces of a domain pair.

The map is a square matrix X with X^T X = I, so its inverse is its
transpose, norms and inner products (hence cosine similarities of user
embeddings) are preserved, and the reverse transfer direction is free.
Training nudges X with a soft penalty ||X^T X - I||_F^2 and re-projects it
onto the orthogonal manifold after every epoch via Newton-Schulz polar
iteration.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cache

import numpy as np

from dualrec.numeric import as_matrix, make_rng

ORTHO_TOL = 1e-6
_NS_MAX_ITERS = 50


@dataclass
class OrthogonalMap:
    """Square matrix aligning two embedding spaces; transpose = inverse."""

    x: np.ndarray
    domain_pair: tuple[str, str] = ("a", "b")

    def __post_init__(self):
        self.x = as_matrix(self.x, "mapping matrix")
        if self.x.shape[0] != self.x.shape[1]:
            raise ValueError(f"mapping matrix must be square, got {self.x.shape}")

    @property
    def dim(self) -> int:
        return self.x.shape[0]

    def copy(self) -> "OrthogonalMap":
        return OrthogonalMap(self.x.copy(), self.domain_pair)


@cache
def _identity(d: int) -> np.ndarray:
    """The d x d identity, built once per dimension and read-only."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def orthogonality_defect(x: np.ndarray) -> float:
    """Frobenius norm of X^T X - I."""
    return float(np.linalg.norm(x.T @ x - _identity(x.shape[0])))


def init_map(d: int, seed: int, domain_pair: tuple[str, str] = ("a", "b")) -> OrthogonalMap:
    """Random orthogonal d x d matrix (QR-orthogonalized Gaussian).

    The pair ("a", "b") draws from the seed's base stream, as every
    two-domain model always has; any other pair draws from a stream of its
    own names, so the maps of an n-domain model start apart.
    """
    if d < 1:
        raise ValueError("mapping dimension must be >= 1")
    names = () if tuple(domain_pair) == ("a", "b") else tuple(zlib.crc32(name.encode("utf-8")) for name in domain_pair)
    rng = make_rng(seed, 0x0A11, *names)
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    # Fix column signs so the draw is unambiguous for a given seed.
    q = q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
    return OrthogonalMap(q, domain_pair)


def align_map(
    source: np.ndarray,
    target: np.ndarray,
    domain_pair: tuple[str, str] = ("a", "b"),
) -> OrthogonalMap:
    """Orthogonal Procrustes fit: the rotation X minimizing ||source X^T - target||_F.

    `source` and `target` are n x d matrices whose rows are embeddings of the
    same n entities in the two spaces.  The solution is U V^T from the SVD of
    target^T source.  No centering or scaling is applied, matching how the map
    is used at prediction time (a bare rotation of raw embeddings).
    """
    s = as_matrix(source, "source embeddings")
    t = as_matrix(target, "target embeddings")
    if s.shape != t.shape:
        raise ValueError(f"source shape {s.shape} != target shape {t.shape}")
    if s.shape[0] < s.shape[1]:
        raise ValueError(f"need at least d={s.shape[1]} paired rows, got {s.shape[0]}")
    u, _, vt = np.linalg.svd(t.T @ s)
    return OrthogonalMap(u @ vt, domain_pair)


def map_forward(m: OrthogonalMap, e: np.ndarray) -> np.ndarray:
    """Transfer an embedding (or batch of row embeddings) through X."""
    e = np.asarray(e, dtype=np.float64)
    if e.shape[-1] != m.dim:
        raise ValueError(f"embedding length {e.shape[-1]} != map dimension {m.dim}")
    if e.ndim == 1:
        return m.x @ e
    return e @ m.x.T


def map_inverse(m: OrthogonalMap, e: np.ndarray) -> np.ndarray:
    """Reverse transfer, X^T e: exact inverse of map_forward up to float error."""
    e = np.asarray(e, dtype=np.float64)
    if e.shape[-1] != m.dim:
        raise ValueError(f"embedding length {e.shape[-1]} != map dimension {m.dim}")
    if e.ndim == 1:
        return m.x.T @ e
    return e @ m.x


def ortho_penalty(m):
    """Soft orthogonality loss ||X^T X - I||_F^2 and its gradient 4 X (X^T X - I).

    m is a map, or K maps stacked as a (K, d, d) array, which give (K,) losses.
    """
    x = m.x if isinstance(m, OrthogonalMap) else m
    e = np.swapaxes(x, -1, -2) @ x - _identity(x.shape[-1])
    loss = (e * e).sum(axis=(-2, -1))
    return (float(loss) if x.ndim == 2 else loss), 4.0 * x @ e


def project_orthogonal(m: OrthogonalMap, tol: float = ORTHO_TOL) -> OrthogonalMap:
    """Nearest-orthogonal projection by Newton-Schulz polar iteration.

    Iterates X <- X (3I - X^T X) / 2 until ||X^T X - I||_F <= tol.  Inputs
    far outside the iteration's convergence region are first scaled by
    1/||X||_F (the polar factor is scale-invariant), which brings every
    nonsingular matrix inside it.  Raises if 50 iterations do not converge,
    which signals a near-singular matrix that needs re-initialization.
    """
    x = m.x.copy()
    if orthogonality_defect(x) > 1.0:
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0:
            raise np.linalg.LinAlgError("cannot orthogonalize the zero matrix; re-initialize the map")
        x = x / nrm
    eye = _identity(m.dim)
    for _ in range(_NS_MAX_ITERS):
        if orthogonality_defect(x) <= tol:
            return OrthogonalMap(x, m.domain_pair)
        x = x @ (3.0 * eye - x.T @ x) / 2.0
    if orthogonality_defect(x) <= tol:
        return OrthogonalMap(x, m.domain_pair)
    raise np.linalg.LinAlgError(
        "Newton-Schulz projection did not converge in 50 iterations; "
        "the matrix is near-singular, re-initialize the map"
    )
