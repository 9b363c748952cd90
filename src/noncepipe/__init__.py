"""Deterministic simulator of the browser webRequest pipeline with two
secure authentication channels: nonce-based password substitution at a
dedicated credential stage, and a header-based FIDO2 channel. Ships with
local adversaries, a synthetic site corpus, and a batch CLI.

Every public name is imported from the module that defines it.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
