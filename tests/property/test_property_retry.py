"""Property-based tests for the retry layer's two core guarantees.

* **Liveness**: for any loss rate strictly below 1, an RA exchange with
  unlimited retries under a generous deadline eventually completes --
  retransmission turns probabilistic loss into bounded delay.
* **Safety (at-most-once)**: however many retransmits the loss forced,
  the service issued exactly one challenge and executed exactly one
  verdict for the exchange -- duplicates were answered from the reply
  cache, never re-executed, so a retry can never double-consume a
  challenge or flip/duplicate a terminal verdict.

Plus pure-schedule properties of :class:`RetryPolicy` (monotone,
capped, exhaustible) that need no I/O at all.
"""

import asyncio

from hypothesis import given, settings, strategies as st

from repro.firmware.blinker import blinker_firmware
from repro.net import (
    LinkConditions,
    ProverEndpoint,
    RetryPolicy,
    VerifierService,
    loopback_pair,
)
from repro.net.fleet import build_prover_bench

_FIRMWARE = blinker_firmware(authorized=True)

#: Generous per-exchange bound: orders of magnitude above the expected
#: completion time at the worst generated loss rate, so a failure means
#: the retry layer lost liveness, not that the machine was slow.
GENEROUS_DEADLINE = 30.0


def _attestation_under_loss(loss, seed):
    """One RA exchange over a seeded lossy loopback with unlimited
    retries; returns (result, service, prover)."""

    async def body():
        # Each example provisions its own prover into a fresh service.
        service = VerifierService()
        bench = build_prover_bench(_FIRMWARE, "asap", "prover-prop",
                                   pox_verifier=service.asap)
        program = bench.device.layout.program
        service.verifier.set_reference("prover-prop", [
            (program, bench.device.memory.dump_region(program)),
        ])
        conditions = LinkConditions(loss=loss, seed=seed)
        client, server_side = loopback_pair(conditions)
        serve = asyncio.ensure_future(service.serve(server_side))
        prover = ProverEndpoint(
            "prover-prop", bench.device, bench.protocol.device_key,
            client, protocol=bench.protocol,
            retry=RetryPolicy(max_attempts=None, base_timeout=0.005,
                              max_timeout=0.05),
        )
        result = await prover.run_attestation(deadline=GENEROUS_DEADLINE)
        await prover.close()
        await serve
        return result, service, prover.retransmits

    return asyncio.run(body())


class TestRetryCompletesUnderLoss:
    @settings(max_examples=12, deadline=None)
    @given(loss=st.floats(min_value=0.0, max_value=0.7),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_any_loss_below_one_eventually_completes(self, loss, seed):
        result, service, _retransmits = _attestation_under_loss(loss, seed)
        assert result.accepted, result.reason
        assert not result.timed_out
        # Liveness settled, safety holds below.
        assert service.pending_challenges == 0

    @settings(max_examples=12, deadline=None)
    @given(loss=st.floats(min_value=0.0, max_value=0.7),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_retransmits_never_duplicate_challenge_or_verdict(self, loss, seed):
        _result, service, retransmits = _attestation_under_loss(loss, seed)
        # Exactly one challenge issued and exactly one verdict executed,
        # no matter how many times frames were retransmitted: every
        # duplicate request was served from the reply cache.
        assert service.counters["challenges"] == 1
        assert service.counters["accepted"] + service.counters["rejected"] == 1
        if retransmits == 0:
            # Nothing was lost, so nothing should look like a duplicate.
            assert service.counters["duplicates"] == 0


class TestRetryPolicySchedule:
    @settings(max_examples=60)
    @given(max_attempts=st.integers(min_value=1, max_value=12),
           base=st.floats(min_value=1e-4, max_value=1.0),
           multiplier=st.floats(min_value=1.0, max_value=4.0),
           cap_factor=st.floats(min_value=1.0, max_value=100.0))
    def test_timeouts_are_monotone_capped_and_exhaustible(
            self, max_attempts, base, multiplier, cap_factor):
        policy = RetryPolicy(max_attempts=max_attempts, base_timeout=base,
                             multiplier=multiplier,
                             max_timeout=base * cap_factor)
        timeouts = list(policy.attempt_timeouts())
        assert len(timeouts) == max_attempts  # the schedule terminates
        assert all(t <= policy.max_timeout for t in timeouts)
        assert all(later >= earlier  # backoff never shrinks
                   for earlier, later in zip(timeouts, timeouts[1:]))
        assert policy.worst_case_seconds() == sum(timeouts)

    @settings(max_examples=30)
    @given(base=st.floats(min_value=1e-4, max_value=1.0),
           # A multiplier a few ulps above 1.0 needs ~1e16 attempts to
           # climb 8x; the lower bound keeps the climb a few hundred.
           multiplier=st.one_of(st.just(1.0),
                                st.floats(min_value=1.01, max_value=4.0)))
    def test_unlimited_schedule_reaches_its_cap(self, base, multiplier):
        policy = RetryPolicy(max_attempts=None, base_timeout=base,
                             multiplier=multiplier, max_timeout=base * 8)
        timeouts = policy.attempt_timeouts()
        seen = [next(timeouts) for _ in range(64)]
        assert not policy.bounded
        assert max(seen) <= policy.max_timeout
        if multiplier > 1.0:
            # The cap is always reached eventually, but a multiplier
            # barely above 1.0 can need far more than 64 attempts to
            # climb 8x (1.03125**63 < 8) -- keep drawing until it lands.
            import math

            attempts_to_cap = math.ceil(
                math.log(policy.max_timeout / base) / math.log(multiplier)) + 2
            for _ in range(max(attempts_to_cap - 64, 0)):
                seen.append(next(timeouts))
            assert seen[-1] == policy.max_timeout  # cap reached
