"""Monocular depth estimation with a guided latent-feature loss."""

__version__ = "0.1.0"
