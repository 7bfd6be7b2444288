"""Micro-benchmarks of the framework's substrates (throughput sanity checks)."""

from __future__ import annotations

import random

from repro.asm.builder import AsmBuilder
from repro.asm.program import TOHOST_ADDRESS
from repro.decnumber import DECIMAL64, DECIMAL64_CONTEXT, DecNumber, dpd, multiply
from repro.decnumber.bcd import int_to_bcd
from repro.hw.bcd_adder import BcdCarryLookaheadAdder
from repro.isa.decoder import decode_instruction
from repro.isa.encoder import encode_instruction
from repro.rocket.core import RocketEmulator
from repro.sim.spike import SpikeSimulator


def test_bcd_adder_throughput(benchmark):
    adder = BcdCarryLookaheadAdder(width_digits=32)
    a = int_to_bcd(98765432109876543210987654321098 % 10**32)
    b = int_to_bcd(12345678901234567890123456789012 % 10**32)
    benchmark(adder.add, a, b)


def test_dpd_codec_throughput(benchmark):
    values = list(range(1000))

    def roundtrip():
        return [dpd.decode_declet(dpd.encode_declet(value)) for value in values]

    benchmark(roundtrip)


def test_decimal64_codec_throughput(benchmark):
    rng = random.Random(5)
    numbers = [
        DecNumber(rng.randint(0, 1), rng.randint(0, 10**16 - 1), rng.randint(-398, 369))
        for _ in range(200)
    ]
    benchmark(lambda: [DECIMAL64.decode(DECIMAL64.encode(n)) for n in numbers])


def test_decnumber_multiply_throughput(benchmark):
    rng = random.Random(6)
    pairs = [
        (
            DecNumber(0, rng.randint(1, 10**16 - 1), rng.randint(-100, 100)),
            DecNumber(1, rng.randint(1, 10**16 - 1), rng.randint(-100, 100)),
        )
        for _ in range(200)
    ]
    benchmark(lambda: [multiply(x, y, DECIMAL64_CONTEXT()) for x, y in pairs])


def test_instruction_codec_throughput(benchmark):
    word = encode_instruction("add", 1, 2, 3)
    benchmark(lambda: decode_instruction(word))


def _loop_image(iterations=2000):
    builder = AsmBuilder()
    builder.label("_start")
    builder.li("t0", 0)
    builder.li("t1", iterations)
    builder.label("loop")
    builder.emit("addi", "t0", "t0", 1)
    builder.emit("xor", "t2", "t0", "t1")
    builder.emit("sltu", "t3", "t0", "t1")
    builder.branch("bne", "t0", "t1", "loop")
    builder.li("t5", TOHOST_ADDRESS)
    builder.li("t6", 1)
    builder.emit("sd", "t6", "t5", 0)
    builder.label("spin")
    builder.j("spin")
    return builder.link()


def test_functional_simulator_throughput(benchmark):
    image = _loop_image()
    result = benchmark.pedantic(
        lambda: SpikeSimulator(image).run(), rounds=3, iterations=1
    )
    benchmark.extra_info["instructions"] = result.instructions_retired


def test_rocket_emulator_throughput(benchmark):
    image = _loop_image()
    result = benchmark.pedantic(
        lambda: RocketEmulator(image).run(), rounds=3, iterations=1
    )
    benchmark.extra_info["instructions"] = result.instructions_retired
    benchmark.extra_info["cycles"] = result.cycles
