"""Mu-style consensus for synchronization groups (paper §4)."""

from .mu import MuGroup, mu_channel

__all__ = ["MuGroup", "mu_channel"]
