"""A FaultPlan's rolls are the scalar PCG64 stream, block by block.

:meth:`FaultPlan._roll` takes its uniforms from blocks of
``ROLL_BLOCK`` drawn at once, and :meth:`FaultPlan.corrupt` cuts the
block before it draws the flipped index.  Every verdict, every flipped
index and every count must equal a replay of the same calls against a
fresh generator drawing one scalar at a time, across many block
boundaries and with the block cut at its first and at its last slot.
"""

import random

import numpy as np

from repro.sim.faults import FaultPlan, FaultStats

SEED = 23
RATES = {"loss_rate": 0.2, "duplicate_rate": 0.15,
         "corrupt_rate": 0.3, "delay_rate": 0.25}
DELAY_NS = 777
ROLLS = ("drop", "duplicate", "corrupt", "unflippable", "delay")


class ScalarReference:
    """The plan's verdicts and counts, one scalar draw per roll."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.stats = FaultStats()

    def _hit(self, rate: float) -> bool:
        return self.rng.random() < rate

    def should_drop(self) -> bool:
        if self._hit(RATES["loss_rate"]):
            self.stats.drops += 1
            return True
        return False

    def should_duplicate(self) -> bool:
        if self._hit(RATES["duplicate_rate"]):
            self.stats.duplicates += 1
            return True
        return False

    def should_corrupt(self, flippable: bool = True) -> bool:
        if self._hit(RATES["corrupt_rate"]) and flippable:
            self.stats.corruptions += 1
            return True
        return False

    def delay(self) -> int:
        if self._hit(RATES["delay_rate"]):
            self.stats.delays += 1
            return DELAY_NS
        return 0

    def corrupt(self, payload: bytes) -> bytes:
        if not payload:
            return payload
        out = bytearray(payload)
        out[int(self.rng.integers(0, len(payload)))] ^= 0xFF
        return bytes(out)


def flipped(payload: bytes, out: bytes) -> int:
    (index,) = [i for i, (a, b) in enumerate(zip(payload, out)) if a != b]
    return index


def drive(plan) -> tuple[list, dict]:
    """Make the same call sequence on ``plan`` (a FaultPlan or the
    reference) and return its outcomes and where the corruptions cut.

    Every rate is above zero, so each roll takes one uniform; the
    sequence counts them to know the slot of a block each roll reads.
    The sequence depends only on a fixed script and on the verdicts
    themselves, so two plans that agree make identical calls."""
    block = FaultPlan.ROLL_BLOCK
    script = random.Random(5)
    log: list = []
    cuts = {"slots": set(), "rolls": 0}
    since_cut = 0

    def roll(kind: str) -> bool:
        nonlocal since_cut
        slot = since_cut % block
        since_cut += 1
        cuts["rolls"] += 1
        if kind == "drop":
            verdict = plan.should_drop()
        elif kind == "duplicate":
            verdict = plan.should_duplicate()
        elif kind == "delay":
            verdict = plan.delay()
        elif kind == "unflippable":
            verdict = plan.should_corrupt(flippable=False)
        else:
            verdict = plan.should_corrupt()
            if verdict:
                cut(slot)
        log.append((kind, verdict))
        return verdict

    def cut(slot: int | None) -> None:
        nonlocal since_cut
        n = script.choice((1, 1, 2, 3, 64, 1500, 4096))
        payload = bytes(range(256)) * (n // 256) + bytes(n % 256)
        log.append(("flip", n, flipped(payload, plan.corrupt(payload))))
        if slot is not None:
            cuts["slots"].add(slot)
        since_cut = 0

    # A corruption before any roll, and an empty payload (no draw).
    cut(None)
    log.append(("empty", plan.corrupt(b"")))
    # A mixed stream: corruptions cut blocks at scattered slots.
    for _ in range(1500):
        roll(script.choice(ROLLS))
    # Long runs without a corruption cross whole blocks.
    for _ in range(4):
        for _ in range(3 * block):
            roll(script.choice(("drop", "duplicate", "delay")))
        roll("corrupt")
    # Cut at a block's first slot and at its last, until each happened.
    for target in (0, block - 1):
        while target not in cuts["slots"]:
            while since_cut % block != target:
                roll(script.choice(("drop", "duplicate", "delay",
                                    "unflippable")))
            roll("corrupt")
    return log, cuts


def test_block_drawn_rolls_replay_the_scalar_stream():
    plan = FaultPlan(seed=SEED, delay_ns=DELAY_NS, **RATES)
    got, cuts = drive(plan)
    reference = ScalarReference(SEED)
    want, _ = drive(reference)
    assert got == want
    assert plan.stats == reference.stats
    block = FaultPlan.ROLL_BLOCK
    assert cuts["rolls"] > 10 * block
    assert {0, block - 1} <= cuts["slots"]
    assert len(cuts["slots"]) > 20
    stats = plan.stats
    assert min(stats.drops, stats.duplicates, stats.delays,
               stats.corruptions) > 50

