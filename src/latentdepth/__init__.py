"""Monocular depth estimation with a guided latent-feature loss.

The package imports none of its submodules, so `latentdepth.cli` can set
the BLAS thread cap before numpy loads."""

__version__ = "0.1.0"
