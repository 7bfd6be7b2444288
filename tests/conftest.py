"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.asm.builder import AsmBuilder
from repro.asm.program import TOHOST_ADDRESS
from repro.rocc.decimal_accel import DecimalAccelerator
from repro.sim.spike import SpikeSimulator
from repro.verification.database import VerificationDatabase
from repro.verification.reference import GoldenReference


@pytest.fixture
def database():
    """A deterministic verification database."""
    return VerificationDatabase(seed=1234)


@pytest.fixture
def golden():
    return GoldenReference()


@pytest.fixture
def accelerator():
    return DecimalAccelerator()


def run_fragment(body, data=None, accelerator=None, result_dwords=4):
    """Assemble and run a small code fragment, returning the simulation result.

    ``body(builder)`` emits instructions; it may store results relative to the
    ``out`` symbol (address in register ``a5`` on entry).  The fragment must
    leave the program counter alone (no infinite loops); the harness appends
    the HTIF exit sequence.
    """
    builder = AsmBuilder()
    builder.data()
    builder.label("out")
    builder.dword(*([0] * result_dwords))
    if data is not None:
        data(builder)
    builder.text()
    builder.label("_start")
    builder.la("a5", "out")
    body(builder)
    builder.li("t5", TOHOST_ADDRESS)
    builder.li("t6", 1)
    builder.emit("sd", "t6", "t5", 0)
    builder.label("spin")
    builder.j("spin")
    image = builder.link()
    simulator = SpikeSimulator(image, accelerator=accelerator)
    return simulator.run()


@pytest.fixture
def fragment_runner():
    return run_fragment


def give_gem5_memory(monkeypatch, memory_class):
    """Build every gem5 CPU on ``memory_class``; spike and Rocket keep theirs.

    The gem5 CPU is Spike's machine, so the class is swapped into
    :mod:`repro.sim.spike` only while an ``AtomicSimpleCPU`` is constructed:
    an injected memory fault then lands in the gem5 leg alone.
    """
    import repro.sim.spike as spike_module
    from repro.gem5.atomic_cpu import AtomicSimpleCPU

    build = AtomicSimpleCPU.__init__

    def build_on_memory_class(self, *args, **kwargs):
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(spike_module, "SparseMemory", memory_class)
            build(self, *args, **kwargs)

    monkeypatch.setattr(AtomicSimpleCPU, "__init__", build_on_memory_class)
