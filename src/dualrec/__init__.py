"""Dual-transfer cross-domain recommendation library.

Subpackages:

- ``numeric``: one stacked dense-layer kernel with manual backprop, seeded RNG streams
- ``features``: schemas, encoding, CSV ingestion, k-fold, synthetic pairs
- ``autoencoder``: per-(domain, entity) feature embedding autoencoders
- ``mapping``: orthogonal map between user-embedding spaces
- ``dualmodel``: hybrid within/cross-domain scorer and the dual training loop
- ``nmflab``: dual nonnegative matrix factorization convergence lab
- ``evaluate``: metrics, cross-validation driver, transfer-rate sweep
- ``cli``: experiment runner (synth / train / eval / alpha-sweep / nmf-lab)
"""

from dualrec import autoencoder, dualmodel, evaluate, features, mapping, nmflab, numeric

__all__ = [
    "autoencoder",
    "dualmodel",
    "evaluate",
    "features",
    "mapping",
    "nmflab",
    "numeric",
]

__version__ = "0.1.0"
