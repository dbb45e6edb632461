"""Unit tests for the fleet service's message transports."""

import asyncio

import pytest

from repro.net.transport import (
    ClosedTransportError,
    LinkConditions,
    loopback_pair,
    open_tcp_listener,
    open_tcp_transport,
)


def run(coroutine):
    return asyncio.run(coroutine)


class CustomPayload:
    """Module-level (picklable) payload type for the allowlist test."""

    def __eq__(self, other):
        return type(other) is type(self)


class TestLinkConditions:
    def test_defaults_are_unimpaired(self):
        assert not LinkConditions().impaired

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            LinkConditions(loss=1.5)
        with pytest.raises(ValueError):
            LinkConditions(reorder=-0.1)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LinkConditions(delay=-1.0)


class TestLoopbackTransport:
    def test_roundtrip_preserves_order(self):
        async def body():
            left, right = loopback_pair()
            for index in range(5):
                await left.send({"n": index})
            return [await right.recv() for _ in range(5)]

        assert run(body()) == [{"n": index} for index in range(5)]

    def test_bidirectional(self):
        async def body():
            left, right = loopback_pair()
            await left.send("ping")
            assert await right.recv() == "ping"
            await right.send("pong")
            return await left.recv()

        assert run(body()) == "pong"

    def test_close_unblocks_peer_recv(self):
        async def body():
            left, right = loopback_pair()
            await left.close()
            with pytest.raises(ClosedTransportError):
                await right.recv()

        run(body())

    def test_send_after_peer_close_raises(self):
        async def body():
            left, right = loopback_pair()
            await right.close()
            with pytest.raises(ClosedTransportError):
                await left.send("into the void")

        run(body())

    def test_total_loss_drops_every_message(self):
        async def body():
            left, right = loopback_pair(LinkConditions(loss=1.0))
            await left.send("dropped")
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(right.recv(), timeout=0.05)

        run(body())

    def test_partial_loss_is_deterministic_per_seed(self):
        def survivors(seed):
            async def body():
                left, right = loopback_pair(LinkConditions(loss=0.5, seed=seed))
                for index in range(20):
                    await left.send(index)
                received = []
                while True:
                    try:
                        received.append(
                            await asyncio.wait_for(right.recv(), timeout=0.05))
                    except asyncio.TimeoutError:
                        return received

            return run(body())

        first = survivors(seed=7)
        assert first == survivors(seed=7)  # deterministic
        assert 0 < len(first) < 20  # actually lossy, not all-or-nothing

    def test_latency_delays_but_delivers(self):
        async def body():
            left, right = loopback_pair(LinkConditions(delay=0.02))
            await left.send("late")
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(right.recv(), timeout=0.001)
            return await asyncio.wait_for(right.recv(), timeout=1.0)

        assert run(body()) == "late"

    def test_reorder_swaps_adjacent_messages(self):
        # With reorder=1.0 every message is held behind its successor,
        # so a pair (a, b) arrives as (b, a).
        async def body():
            left, right = loopback_pair(LinkConditions(reorder=1.0))
            await left.send("a")
            await left.send("b")
            return [await right.recv(), await right.recv()]

        assert run(body()) == ["b", "a"]


def _scenario_values():
    from repro.sim.runner import ScenarioResult

    return {"ScenarioResult": ScenarioResult(name="s", observations={"steps": 10})}


def _firmware_values():
    from repro.firmware.blinker import BlinkerParameters
    from repro.firmware.sensor_logger import SensorParameters
    from repro.firmware.syringe_pump import PumpParameters
    from repro.firmware.testbench import FirmwareSpec, TestbenchConfig

    return {
        "BlinkerParameters": BlinkerParameters(),
        "SensorParameters": SensorParameters(),
        "PumpParameters": PumpParameters(),
        "FirmwareSpec": FirmwareSpec(name="f", source="nop"),
        "TestbenchConfig": TestbenchConfig(),
    }


def _collection_values():
    import collections

    return {
        "Counter": collections.Counter("aab"),
        "OrderedDict": collections.OrderedDict(a=1),
        "defaultdict": collections.defaultdict(int, a=1),
        "deque": collections.deque([1, 2]),
    }


#: Types that no longer cross a socket: scenario results stay in the
#: process that runs them, firmware is built on the prover's side, and
#: no fleet or shard frame carries a ``collections`` type.
REFUSED_NAMES = ("ScenarioResult", "BlinkerParameters", "SensorParameters",
                 "PumpParameters", "FirmwareSpec", "TestbenchConfig",
                 "Counter", "OrderedDict", "defaultdict", "deque")


class TestRestrictedDecoding:
    @pytest.mark.parametrize("name", REFUSED_NAMES)
    def test_dropped_frame_types_refused(self, name):
        import pickle

        from repro.net.transport import decode_payload, encode_frame

        value = dict(_scenario_values(), **_firmware_values(),
                     **_collection_values())[name]
        frame = encode_frame({"kind": "probe", "value": value})
        with pytest.raises(pickle.UnpicklingError,
                           match=r"disallowed global .*\.%s " % name):
            decode_payload(frame[4:])

    def test_hostile_pickle_frame_rejected(self):
        # A frame whose pickle references os.system must be refused at
        # find_class time, not executed.
        import pickle

        from repro.net.transport import decode_payload

        class Exploit:
            def __reduce__(self):
                import os
                return (os.system, ("true",))

        hostile = pickle.dumps(Exploit())
        with pytest.raises(pickle.UnpicklingError, match="disallowed"):
            decode_payload(hostile)

    def test_repro_function_gadget_rejected(self):
        # A blanket repro.* allowance would make every function in the
        # package a REDUCE gadget (e.g. repro.experiments.runners.
        # write_json writing attacker-chosen files).  Only the known
        # payload *classes* may resolve.
        import pickle

        from repro.experiments.runners import write_json
        from repro.net.transport import decode_payload

        hostile = pickle.dumps(write_json)  # a frame naming a repro function
        with pytest.raises(pickle.UnpicklingError, match="disallowed"):
            decode_payload(hostile)

    def test_only_fleet_and_shard_payloads_decode(self):
        # The allowlist holds the classes fleet and shard frames carry:
        # enrollments (with their PoX geometry and IVT region) and
        # attestation reports.  Scenario results and testbench
        # configurations no longer cross a socket.
        import pickle

        from repro.firmware.blinker import blinker_firmware
        from repro.firmware.testbench import PoxTestbench, TestbenchConfig
        from repro.net.service import provision_enrollment
        from repro.net.transport import decode_payload, encode_frame
        from repro.sim import ScenarioResult
        from repro.vrased.swatt import AttestationReport

        bench = PoxTestbench(blinker_firmware(authorized=True),
                             TestbenchConfig(architecture="asap"))
        enrollment = provision_enrollment(bench)
        assert enrollment.pox_config is not None
        assert enrollment.ivt_region is not None
        report = AttestationReport(device_id="d", challenge=b"\x01" * 32,
                                   measurement=b"\x02" * 32,
                                   claims={"EXEC": 1}, snapshots={"OR": b"\x03"})
        for message in (
            {"kind": "enroll", "seq": 0, "enrollment": enrollment},
            {"kind": "report", "seq": 1, "protocol": "asap", "report": report},
        ):
            assert decode_payload(encode_frame(message)[4:]) == message

        for message in (
            {"kind": "scenario", "result": ScenarioResult(name="ok")},
            {"kind": "testbench", "config": TestbenchConfig()},
        ):
            frame = encode_frame(message)
            with pytest.raises(pickle.UnpicklingError, match="disallowed"):
                decode_payload(frame[4:])

    def test_allow_frame_type_extends_the_allowlist(self):
        import pickle

        from repro.net.transport import allow_frame_type, decode_payload

        frame = pickle.dumps(CustomPayload())
        with pytest.raises(pickle.UnpicklingError, match="allow_frame_type"):
            decode_payload(frame)
        allow_frame_type(CustomPayload)
        assert decode_payload(frame) == CustomPayload()


class TestTcpTransport:
    def test_roundtrip_over_real_sockets(self):
        async def body():
            echoes = []

            async def handler(transport):
                while True:
                    try:
                        message = await transport.recv()
                    except ClosedTransportError:
                        return
                    echoes.append(message)
                    await transport.send({"echo": message})

            server = await open_tcp_listener(handler)
            host, port = server.sockets[0].getsockname()[:2]
            client = await open_tcp_transport(host, port)
            await client.send({"payload": b"\x00\xFF" * 100, "n": 1})
            reply = await client.recv()
            await client.close()
            server.close()
            await server.wait_closed()
            return echoes, reply

        echoes, reply = run(body())
        assert echoes == [{"payload": b"\x00\xFF" * 100, "n": 1}]
        assert reply == {"echo": {"payload": b"\x00\xFF" * 100, "n": 1}}

    def test_peer_close_raises_on_recv(self):
        async def body():
            async def handler(transport):
                return  # close immediately

            server = await open_tcp_listener(handler)
            host, port = server.sockets[0].getsockname()[:2]
            client = await open_tcp_transport(host, port)
            with pytest.raises(ClosedTransportError):
                await client.recv()
            await client.close()
            server.close()
            await server.wait_closed()

        run(body())

    def test_recv_cancelled_mid_frame_does_not_desync_stream(self):
        # A deadline cancellation landing between the header read and
        # the payload read (frame split across TCP segments) must cost
        # only that recv: the next one resumes with the payload, it
        # must not parse payload bytes as a fresh length header.
        from repro.net.transport import encode_frame

        async def body():
            frame = encode_frame({"late": True})

            async def on_connect(reader, writer):
                writer.write(frame[:4])  # header only
                await writer.drain()
                await asyncio.sleep(0.1)
                writer.write(frame[4:])  # payload, then a second frame
                writer.write(encode_frame({"next": 2}))
                await writer.drain()
                await asyncio.sleep(0.3)
                writer.close()

            server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            client = await open_tcp_transport(host, port)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(client.recv(), timeout=0.02)
            first = await client.recv()
            second = await client.recv()
            await client.close()
            server.close()
            await server.wait_closed()
            return first, second

        assert run(body()) == ({"late": True}, {"next": 2})
