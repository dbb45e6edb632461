"""Cryptographic primitives used by the attestation stack.

VRASED's software attestation routine computes an HMAC over the attested
memory; APEX and ASAP inherit that construction.  Two interchangeable
SHA-256 backends sit behind one registry (:mod:`repro.crypto.backend`):
the from-scratch ``"pure"`` reference implementation and a
:mod:`hashlib`-backed ``"fast"`` backend (the default), selected via
``REPRO_CRYPTO_BACKEND`` / :func:`set_backend` / :func:`use_backend`.
Differential tests pin both byte-identical on every experiment vector
and chunking, so the attestation substrate keeps a self-contained,
auditable reference while the hot path runs at host speed.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CRYPTO_BACKENDS": "repro.crypto.backend:BACKENDS",
    "HashlibSha256": "repro.crypto.backend",
    "Sha256": "repro.crypto.sha256",
    "backend_name": "repro.crypto.backend",
    "hasher_class": "repro.crypto.backend",
    "new_sha256": "repro.crypto.backend",
    "register_backend": "repro.crypto.backend",
    "set_backend": "repro.crypto.backend",
    "sha256": "repro.crypto.backend",
    "use_backend": "repro.crypto.backend",
    "Hmac": "repro.crypto.hmac",
    "HmacKey": "repro.crypto.hmac",
    "hmac_sha256": "repro.crypto.hmac",
    "verify_hmac": "repro.crypto.hmac",
    "KeyStore": "repro.crypto.keys",
    "DeviceKey": "repro.crypto.keys",
    "derive_key": "repro.crypto.keys",
    "constant_time_compare": "repro.crypto.compare",
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

# ``sha256`` also names the submodule ``crypto/sha256.py``, and the first
# import of a submodule binds it over the package attribute of that name.
# Resolving the function here imports backend, and with it that submodule,
# first, so ``repro.crypto.sha256`` stays the backend's one-shot.
sha256 = __getattr__("sha256")
