"""Unit tests for the pluggable crypto-backend registry.

The contract: ``pure`` (from-scratch reference) and ``fast``
(:mod:`hashlib`) are byte-identical on every digest, tag, derived key
and attestation measurement -- selecting a backend is purely a
performance decision -- and selection follows explicit argument >
set_backend/use_backend > ``REPRO_CRYPTO_BACKEND`` > default fast.
"""

import hashlib
import hmac as std_hmac

import pytest

from repro.crypto import backend as backend_module
from repro.crypto.backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    ENV_VAR,
    HashlibSha256,
    backend_name,
    hasher_class,
    new_sha256,
    set_backend,
    sha256 as dispatching_sha256,
    use_backend,
)
from repro.crypto.hmac import Hmac, HmacKey, hmac_sha256
from repro.crypto.keys import DeviceKey
from repro.crypto.sha256 import Sha256
from repro.memory.layout import MemoryRegion
from repro.memory.memory import Memory
from repro.vrased.protocol import AttestationRequest, Verifier
from repro.vrased.swatt import SwAtt


@pytest.fixture(autouse=True)
def _reset_backend_selection(monkeypatch):
    """Isolate every test from ambient backend selection."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    previous = backend_module._active
    set_backend(None)
    yield
    backend_module._active = previous


class TestRegistry:
    def test_both_backends_registered(self):
        assert BACKENDS["pure"] is Sha256
        assert BACKENDS["fast"] is HashlibSha256

    def test_default_is_fast(self):
        assert DEFAULT_BACKEND == "fast"
        assert backend_name() == "fast"
        assert isinstance(new_sha256(), HashlibSha256)

    def test_environment_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "pure")
        assert backend_name() == "pure"
        assert isinstance(new_sha256(), Sha256)

    def test_empty_environment_value_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "")
        assert backend_name() == "fast"

    def test_set_backend_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "fast")
        set_backend("pure")
        assert backend_name() == "pure"
        set_backend(None)
        assert backend_name() == "fast"

    def test_explicit_argument_wins(self):
        set_backend("pure")
        assert isinstance(new_sha256(backend="fast"), HashlibSha256)

    def test_use_backend_scopes_and_restores(self):
        assert backend_name() == "fast"
        with use_backend("pure") as hasher:
            assert hasher is Sha256
            assert backend_name() == "pure"
        assert backend_name() == "fast"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("pure"):
                raise RuntimeError("boom")
        assert backend_name() == "fast"

    def test_unknown_backend_fails_loudly(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown crypto backend"):
            hasher_class("blake3")
        with pytest.raises(ValueError, match="unknown crypto backend"):
            set_backend("blake3")
        # A typoed environment variable must not silently run slow (or
        # at all): the first hash raises.
        monkeypatch.setenv(ENV_VAR, "fasst")
        with pytest.raises(ValueError, match="fasst"):
            new_sha256()

    def test_register_backend_extends_registry(self):
        class Doubler(HashlibSha256):
            pass

        backend_module.register_backend("doubler", Doubler)
        try:
            assert isinstance(new_sha256(backend="doubler"), Doubler)
        finally:
            del BACKENDS["doubler"]


class TestHashlibSha256Parity:
    """The fast backend exposes exactly the reference hasher's API."""

    def test_one_shot_and_hexdigest(self):
        assert HashlibSha256(b"abc").digest() == hashlib.sha256(b"abc").digest()
        assert HashlibSha256(b"abc").hexdigest() == hashlib.sha256(b"abc").hexdigest()

    def test_update_returns_self_for_chaining(self):
        hasher = HashlibSha256()
        assert hasher.update(b"a").update(b"b").digest() == \
            hashlib.sha256(b"ab").digest()

    def test_copy_is_independent(self):
        hasher = HashlibSha256(b"abc")
        clone = hasher.copy()
        clone.update(b"def")
        assert hasher.digest() == hashlib.sha256(b"abc").digest()
        assert clone.digest() == hashlib.sha256(b"abcdef").digest()

    def test_digest_does_not_consume_state(self):
        hasher = HashlibSha256(b"abc")
        assert hasher.digest() == hasher.digest()

    def test_accepts_memoryview_bytearray_and_int_iterables(self):
        expected = hashlib.sha256(b"\x01\x02\x03").digest()
        assert HashlibSha256(memoryview(b"\x01\x02\x03")).digest() == expected
        assert HashlibSha256(bytearray(b"\x01\x02\x03")).digest() == expected
        assert HashlibSha256([1, 2, 3]).digest() == expected

    @pytest.mark.parametrize("hasher_class", [Sha256, HashlibSha256])
    def test_accepts_non_contiguous_memoryview(self, hasher_class):
        # A strided view is not hashable zero-copy (hashlib raises
        # BufferError, the pure fast path needs contiguity); both
        # backends must fall back to a flattening copy, both below and
        # above one block.
        for size in (16, 1000):
            data = bytes(range(256)) * (size // 64 + 1)
            strided = memoryview(data)[:size * 2:2]
            expected = hashlib.sha256(bytes(strided)).digest()
            assert hasher_class(strided).digest() == expected, \
                (hasher_class.__name__, size)

    def test_class_constants(self):
        assert HashlibSha256.digest_size == Sha256.digest_size == 32
        assert HashlibSha256.block_size == Sha256.block_size == 64

    def test_dispatching_one_shot(self):
        assert dispatching_sha256(b"xyz") == hashlib.sha256(b"xyz").digest()
        assert dispatching_sha256(b"xyz", backend="pure") == \
            hashlib.sha256(b"xyz").digest()


class TestHmacKey:
    KEYS = [b"", b"Jefe", b"\x0b" * 20, bytes(range(256)), b"k" * 64]

    @pytest.mark.parametrize("backend", ["pure", "fast"])
    @pytest.mark.parametrize("key", KEYS)
    def test_matches_stdlib(self, backend, key):
        data = b"attested memory contents" * 9
        mac_key = HmacKey(key, backend=backend)
        expected = std_hmac.new(key, data, hashlib.sha256).digest()
        assert mac_key.tag(data) == expected
        assert mac_key.mac(data).digest() == expected

    def test_reusing_key_state_across_messages(self):
        mac_key = HmacKey(b"key")
        for message in (b"", b"one", b"two" * 100):
            assert mac_key.tag(message) == \
                std_hmac.new(b"key", message, hashlib.sha256).digest()

    def test_hmac_accepts_precomputed_key(self):
        mac_key = HmacKey(b"key")
        assert Hmac(mac_key, b"msg").digest() == hmac_sha256(b"key", b"msg")

    def test_key_state_bound_at_construction(self):
        with use_backend("pure"):
            mac_key = HmacKey(b"key")
            assert isinstance(mac_key._inner0, Sha256)
        # Backend switched back to fast; tags from the pure-bound state
        # still agree with a fresh fast computation.
        assert mac_key.tag(b"msg") == hmac_sha256(b"key", b"msg")


class TestBackendDifferential:
    """Measurements and tags are byte-identical across backends."""

    def _swatt_report(self):
        memory = Memory()
        memory.load_bytes(0, bytes(range(256)) * 256)
        device_key = DeviceKey("diff-device", b"\x77" * 32)
        swatt = SwAtt(device_key)
        regions = [MemoryRegion(0x0100, 0x02FF, "a"),
                   MemoryRegion(0xE000, 0xE0FF, "er")]
        return swatt.measure(
            memory, b"\xC3" * 32, regions,
            scalars={"EXEC": 1, "epoch": 7},
            snapshot_regions={"OR": MemoryRegion(0x0600, 0x063F, "or")},
        )

    def test_swatt_measurement_identical_across_backends(self):
        reports = {}
        for backend in ("pure", "fast"):
            with use_backend(backend):
                reports[backend] = self._swatt_report()
        assert reports["pure"].measurement == reports["fast"].measurement
        assert reports["pure"].snapshots == reports["fast"].snapshots
        assert reports["pure"].claims == reports["fast"].claims

    def test_measurement_pins_legacy_wire_format(self):
        """The streamed measure() must produce the exact bytes of the
        old concatenate-then-MAC construction (recomputed here with the
        standard library, so a format regression cannot hide)."""
        from repro.vrased.swatt import encode_region_descriptor, encode_scalar

        memory = Memory()
        memory.load_bytes(0, bytes(range(256)) * 256)
        device_key = DeviceKey("diff-device", b"\x77" * 32)
        challenge = b"\xC3" * 32
        regions = [MemoryRegion(0x0100, 0x02FF, "a"),
                   MemoryRegion(0xE000, 0xE0FF, "er")]
        scalars = {"EXEC": 1, "epoch": 7}

        message = challenge
        for region in regions:
            message += encode_region_descriptor(region)
            message += memory.dump_region(region)
        for name in sorted(scalars):
            message += encode_scalar(name, scalars[name])
        expected = std_hmac.new(device_key.attestation_key(), message,
                                hashlib.sha256).digest()

        for backend in ("pure", "fast"):
            with use_backend(backend):
                report = SwAtt(device_key).measure(memory, challenge, regions,
                                                   scalars=scalars)
                assert report.measurement == expected, backend

    def test_cross_backend_prover_and_verifier_agree(self):
        """A report measured by a pure-backend prover verifies against a
        fast-backend verifier's recomputation (and vice versa) -- the
        deployment shape where the two ends run different hosts."""
        memory = Memory()
        memory.load_bytes(0, bytes(range(256)) * 256)
        device_key = DeviceKey("diff-device", b"\x77" * 32)
        challenge = b"\x3C" * 32
        region = MemoryRegion(0x0100, 0x02FF, "a")
        contents = [(region, memory.dump_region(region))]

        for prover_backend, verifier_backend in (("pure", "fast"),
                                                 ("fast", "pure")):
            with use_backend(prover_backend):
                report = SwAtt(device_key).measure(memory, challenge, [region])
            with use_backend(verifier_backend):
                expected = SwAtt.expected_measurement(device_key, challenge,
                                                      contents)
            assert report.measurement == expected, (prover_backend,
                                                    verifier_backend)

    def test_request_token_identical_across_backends(self):
        """The verifier's request token is the standard HMAC of the
        challenge under the request-authentication sub-key on either
        backend, and a prover on the other backend accepts it."""
        device_key = DeviceKey("diff-device", b"\x77" * 32)
        challenge = b"\x5A" * 32
        expected = std_hmac.new(device_key.authentication_key(), challenge,
                                hashlib.sha256).digest()

        for verifier_backend, prover_backend in (("pure", "fast"),
                                                 ("fast", "pure")):
            verifier = Verifier(rng=lambda _length: challenge)
            verifier.enroll(device_key.device_id, device_key.master_key)
            with use_backend(verifier_backend):
                request = verifier.create_request(device_key.device_id)
                # The cached key state is the selected backend's own.
                assert isinstance(device_key.authentication_mac()._inner0,
                                  BACKENDS[verifier_backend])
            assert request.auth_token == expected, verifier_backend
            with use_backend(prover_backend):
                assert request.verify_token(device_key), prover_backend
                forged = AttestationRequest(challenge, bytes(32))
                assert not forged.verify_token(device_key), prover_backend

    def test_full_pox_exchange_cross_checked_by_other_backend(self):
        """Run the whole PoX exchange under each backend, then recompute
        the report's measurement with the *other* backend from the
        device's final memory state -- the two implementations must
        agree on every real experiment vector, not just synthetic ones."""
        from repro import PoxTestbench, TestbenchConfig, blinker_firmware

        for backend, other in (("pure", "fast"), ("fast", "pure")):
            with use_backend(backend):
                bench = PoxTestbench(blinker_firmware(authorized=True),
                                     TestbenchConfig(architecture="asap"))
                result = bench.run_pox(
                    setup=lambda device: device.schedule_button_press(6))
                assert result.accepted, backend
            contents = [(region, bench.device.memory.dump_region(region))
                        for region in bench.protocol._measured_regions()]
            with use_backend(other):
                recomputed = SwAtt.expected_measurement(
                    bench.protocol.device_key,
                    bench.protocol._active_challenge,
                    contents,
                    scalars={"EXEC": 1},
                )
            assert result.report.measurement == recomputed, (backend, other)
