"""Seeded inputs for the ``pox`` and ``fleet`` workloads.

The program never sees the seed, only what is generated from it here:
the same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Tuple

#: Samples the sensor logger's ER takes per exchange.
POX_SAMPLES = 500
#: UART commands that arrive during each exchange.
POX_COMMANDS = 4
#: Monitored steps per sample of the ER's loop (MOV.B, ADD, INC, CMP, JNE).
STEPS_PER_SAMPLE = 5
#: Steps kept clear at both ends of the sampling loop, so every command
#: arrives after ``EINT`` and is served before ``DINT``.
EDGE_STEPS = 40
#: Minimum distance between two arrivals (one ISR takes a handful of steps).
MIN_GAP = 16

#: Exchange kinds a fleet client alternates between.
FLEET_KINDS = ("ra", "pox")


@dataclass(frozen=True)
class PoxInput:
    """One exchange's inputs: the sensor reading and the UART commands."""

    sensor: int
    #: ``(steps after ER entry, command byte)`` pairs, in arrival order.
    commands: Tuple[Tuple[int, int], ...]

    def expected_output(self) -> dict:
        """The output-region words a correct run must publish."""
        return {
            "sum": (self.sensor * POX_SAMPLES) & 0xFFFF,
            "count": POX_SAMPLES,
            "command": self.commands[-1][1] if self.commands else 0,
        }


def _arrivals(rng: random.Random) -> list:
    low = EDGE_STEPS
    high = POX_SAMPLES * STEPS_PER_SAMPLE - EDGE_STEPS
    while True:
        steps = sorted(rng.sample(range(low, high), POX_COMMANDS))
        if all(b - a >= MIN_GAP for a, b in zip(steps, steps[1:])):
            return steps


def pox_inputs(seed: int) -> Iterator[PoxInput]:
    """Endless stream of exchange inputs drawn from *seed*."""
    rng = random.Random(seed)
    while True:
        sensor = rng.randrange(256)
        steps = _arrivals(rng)
        payload = tuple(rng.randrange(1, 256) for _ in steps)
        yield PoxInput(sensor, tuple(zip(steps, payload)))


@dataclass(frozen=True)
class FleetPlan:
    """How the seed shapes the fleet's closed loop."""

    #: Client indexes in the order their loops are started.
    order: Tuple[int, ...]
    #: Per client (by index): 0 starts with RA, 1 with PoX.  Half the
    #: clients start with each, so every seed offers the same mix.
    first_kind: Tuple[int, ...]


def fleet_plan(seed: int, clients: int) -> FleetPlan:
    """Start order and first exchange kind of every client, from *seed*."""
    rng = random.Random(seed)
    order = list(range(clients))
    rng.shuffle(order)
    first = [index % len(FLEET_KINDS) for index in range(clients)]
    rng.shuffle(first)
    return FleetPlan(tuple(order), tuple(first))
