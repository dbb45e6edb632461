"""Constant-time byte-string comparison.

The single implementation shared by the protocol layer
(:func:`repro.crypto.keys.constant_time_compare` re-exports it) and by
:func:`repro.crypto.hmac.verify_hmac`: tag and token checks must not
leak how many leading bytes matched through their running time.  The
comparison itself is the standard library's
:func:`hmac.compare_digest`, which runs in C and reads every byte.
"""

from __future__ import annotations

from hmac import compare_digest


def constant_time_compare(a, b):
    """Compare two byte strings without early exit.

    Both sides are normalised to ``bytes`` first, so a ``bytearray`` or
    ``memoryview`` compares by content like ``bytes`` does.  A length
    mismatch returns ``False`` immediately -- lengths are public (tag
    sizes are fixed by the construction); only the *content*
    comparison must not short-circuit, and
    :func:`hmac.compare_digest` does not.
    """
    a = bytes(a)
    b = bytes(b)
    if len(a) != len(b):
        return False
    return compare_digest(a, b)
