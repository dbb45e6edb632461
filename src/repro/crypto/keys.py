"""Device keys, key derivation and the prover-side key store.

VRASED provisions each device with a unique symmetric key ``K`` at
manufacture time; the key lives in a ROM region that the hardware
monitor makes readable only while the program counter is inside the
attestation code (SW-Att).  :class:`KeyStore` models the verifier-side
database of device keys, and :func:`derive_key` is the HKDF-like
expansion both sides use to derive per-purpose sub-keys.  A device has
two: the attestation sub-key that keys SW-Att's measurement, and the
request-authentication sub-key that keys the verifier's challenge
token.  Both are used as HMAC keys through :func:`_sub_key_mac`, the one
cache of precomputed HMAC state per device key, sub-key and backend.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional

from repro.crypto.backend import backend_name
# Re-exported here for the protocol layer; the single implementation
# lives in repro.crypto.compare (shared with verify_hmac).
from repro.crypto.compare import constant_time_compare
from repro.crypto.hmac import HmacKey, hmac_sha256


#: Length of a device master key in bytes.
KEY_LENGTH = 32


@lru_cache(maxsize=512)
def _expand(master_key, label, length):
    """The memoised HKDF-Expand body (keys are deterministic per input,
    and a verifier re-derives the same sub-keys for every report)."""
    output = b""
    counter = 1
    while len(output) < length:
        output += hmac_sha256(master_key, label + bytes([counter]))
        counter += 1
    return output[:length]


def derive_key(master_key, label, length=KEY_LENGTH):
    """Derive a sub-key from *master_key* for the given *label*.

    A single-block HKDF-Expand style construction: successive HMAC
    invocations over ``label || counter`` concatenated until *length*
    bytes are available.  Results are memoised -- attestation-heavy
    campaigns derive the same sub-key for every report.
    """
    if isinstance(label, str):
        label = label.encode("utf-8")
    return _expand(bytes(master_key), bytes(label), length)


#: Derivation labels of a device's two sub-keys.
ATTESTATION_LABEL = "attestation"
REQUEST_AUTH_LABEL = "request-auth"


@lru_cache(maxsize=256)
def _sub_key_mac(device_key: "DeviceKey", label: str, backend: str) -> HmacKey:
    """Precomputed HMAC state for the *label* sub-key of *device_key*.

    Keying an HMAC costs two hasher objects, two pad translations and
    two compressions; a verifier keys the same two sub-keys of each
    device for every challenge and every report, so each is keyed once
    here.  Keyed by the crypto backend as well, so a backend switch
    (differential tests, benchmarks) never hands back state built by
    the other implementation.
    """
    return HmacKey(derive_key(device_key.master_key, label), backend=backend)


@dataclass(frozen=True)
class DeviceKey:
    """A provisioned device identity: ID plus master key."""

    device_id: str
    master_key: bytes

    def attestation_key(self):
        """The sub-key used for RA / PoX reports."""
        return derive_key(self.master_key, ATTESTATION_LABEL)

    def authentication_key(self):
        """The sub-key used to authenticate verifier requests."""
        return derive_key(self.master_key, REQUEST_AUTH_LABEL)

    def attestation_mac(self) -> HmacKey:
        """The attestation sub-key as precomputed HMAC state (active
        backend): SW-Att's measurement key."""
        return _sub_key_mac(self, ATTESTATION_LABEL, backend_name())

    def authentication_mac(self) -> HmacKey:
        """The request-authentication sub-key as precomputed HMAC state
        (active backend): the key of a challenge's ``auth_token``."""
        return _sub_key_mac(self, REQUEST_AUTH_LABEL, backend_name())


@dataclass
class KeyStore:
    """Verifier-side registry of provisioned devices."""

    _keys: Dict[str, DeviceKey] = field(default_factory=dict)

    def provision(self, device_id, master_key=None):
        """Create (or re-create) a device entry; returns the :class:`DeviceKey`.

        When *master_key* is omitted a fresh random key is generated.
        """
        if master_key is None:
            master_key = os.urandom(KEY_LENGTH)
        key = DeviceKey(device_id=device_id, master_key=bytes(master_key))
        self._keys[device_id] = key
        return key

    def get(self, device_id):
        """Return the :class:`DeviceKey` for *device_id*.

        :raises KeyError: if the device has not been provisioned.
        """
        return self._keys[device_id]

    def has_device(self, device_id):
        """Return ``True`` if *device_id* is provisioned."""
        return device_id in self._keys

    def device_ids(self):
        """Return all provisioned device identifiers."""
        return list(self._keys)
