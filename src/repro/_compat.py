"""Small cross-version helpers.

The package targets Python 3.9+ (the CI matrix pins 3.9 and 3.12).  The
only interpreter-version dependence in the tree is ``dataclass(slots=True)``,
which arrived in 3.10: the hot-path dataclasses (signal bundles, trace
entries) want slots for memory and lookup speed, but must still import
on 3.9.  ``DATACLASS_SLOTS`` expands to ``{"slots": True}`` where
supported and to nothing otherwise::

    from repro._compat import DATACLASS_SLOTS

    @dataclass(**DATACLASS_SLOTS)
    class SignalBundle: ...

The per-access records (``MemoryRead``/``MemoryWrite``) are
``typing.NamedTuple`` classes instead, which need no helper.
"""

from __future__ import annotations

import sys

#: Extra ``dataclass`` keyword arguments: ``slots=True`` on 3.10+, empty
#: (plain dict-backed instances) on older interpreters.
DATACLASS_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}
