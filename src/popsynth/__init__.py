"""Synthetic population toolkit.

Builds household/person inventories from categorical microdata: restructure
persons into fixed-width household rows, one-hot encode, pretrain a
variational autoencoder, fine-tune a latent matrix against tract marginal
targets through the frozen decoder, decode to a synthetic inventory, then
score fidelity and privacy.
"""

__version__ = "0.1.0"

from . import evaluation, generation, losses, nn, schema, training, vae  # noqa: F401
