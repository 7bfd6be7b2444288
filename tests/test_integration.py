"""End-to-end integration tests: the whole Fig. 2 flow in one place."""

import pytest

from repro.core.evaluation import EvaluationFramework
from repro.core.method1 import FunctionalHardware, Method1HostModel
from repro.gem5.atomic_cpu import AtomicSimpleCPU
from repro.rocc.decimal_accel import DecimalAccelerator
from repro.rocket.config import RocketConfig
from repro.rocket.core import RocketEmulator
from repro.sim.spike import SpikeSimulator
from repro.testgen.config import SolutionKind, TestProgramConfig
from repro.testgen.generator import build_test_program
from repro.verification.checker import ResultChecker
from repro.verification.coverage import CoverageTracker
from repro.verification.database import OperandClass, VerificationDatabase
from repro.verification.reference import GoldenReference


@pytest.fixture(scope="module")
def shared_vectors():
    return VerificationDatabase(seed=1001).generate_mix(24, OperandClass.ALL)


class TestFullPipeline:
    def test_same_binary_on_all_three_simulators(self, shared_vectors):
        """One Method-1 binary runs identically on Spike, Rocket and Gem5."""
        config = TestProgramConfig(
            solution=SolutionKind.METHOD1, num_samples=len(shared_vectors)
        )
        program = build_test_program(config, vectors=shared_vectors)

        spike = SpikeSimulator(program.image, accelerator=DecimalAccelerator()).run()
        rocket = RocketEmulator(program.image, accelerator=DecimalAccelerator()).run()
        atomic = AtomicSimpleCPU(program.image, accelerator=DecimalAccelerator()).run()

        spike_results = program.read_results(spike)
        assert spike_results == program.read_results(rocket)
        assert spike_results == program.read_results(atomic)
        # Instruction counts agree between the functional and atomic models.
        assert spike.instructions_retired == atomic.instructions_retired
        # The timed model charges more cycles than instructions.
        assert rocket.cycles > rocket.instructions_retired

    def test_rocket_and_host_model_agree_with_golden(self, shared_vectors, golden):
        """RISC-V kernel results == host model results == golden library."""
        config = TestProgramConfig(
            solution=SolutionKind.METHOD1, num_samples=len(shared_vectors)
        )
        program = build_test_program(config, vectors=shared_vectors)
        result = RocketEmulator(program.image, accelerator=DecimalAccelerator()).run()
        words = program.read_results(result)
        host = Method1HostModel(hardware=FunctionalHardware())
        checker = ResultChecker(golden)
        for vector, word in zip(shared_vectors, words):
            golden_value = golden.compute(vector.x, vector.y).value
            host_value = host.multiply(vector.x, vector.y)
            kernel_value = golden.decode(word)
            assert checker.results_match(golden_value, kernel_value)
            assert checker.results_match(golden_value, host_value)

    def test_coverage_of_paper_conditions(self, shared_vectors, golden):
        tracker = CoverageTracker(golden)
        tracker.record_all(shared_vectors)
        required = {"inexact", "overflow", "subnormal", "clamped", "result_zero"}
        assert tracker.missing_conditions(required) == frozenset()

    def test_cache_nondeterminism_is_bounded(self):
        """Different cache-replacement seeds change cycles only slightly
        (the effect the paper attributes to Rocket's random replacement)."""
        framework_a = EvaluationFramework(
            num_samples=10, seed=55, rocket_config=RocketConfig(seed=1)
        )
        framework_b = EvaluationFramework(
            num_samples=10, seed=55, rocket_config=RocketConfig(seed=2)
        )
        cycles_a = framework_a.run_cycle_accurate(SolutionKind.METHOD1)
        cycles_b = framework_b.run_cycle_accurate(SolutionKind.METHOD1)
        ratio = cycles_a.avg_total_cycles / cycles_b.avg_total_cycles
        assert 0.9 < ratio < 1.1

    def test_rocc_interface_latency_increases_hw_part_only(self):
        """The paper's discussion: interface latency penalises the accelerator
        path; the software baseline is unaffected."""
        slow_interface = RocketConfig(rocc_cmd_latency_cycles=8,
                                      rocc_resp_latency_cycles=8)
        base = EvaluationFramework(num_samples=10, seed=60)
        slow = EvaluationFramework(num_samples=10, seed=60,
                                   rocket_config=slow_interface)
        base_m1 = base.run_cycle_accurate(SolutionKind.METHOD1)
        slow_m1 = slow.run_cycle_accurate(SolutionKind.METHOD1)
        base_sw = base.run_cycle_accurate(SolutionKind.SOFTWARE)
        slow_sw = slow.run_cycle_accurate(SolutionKind.SOFTWARE)
        assert slow_m1.avg_hw_cycles > base_m1.avg_hw_cycles
        assert abs(slow_sw.avg_total_cycles - base_sw.avg_total_cycles) < 1.0

    def test_dummy_speedup_consistent_between_rocket_and_gem5(self):
        """The paper's headline consistency claim (Tables IV vs VI): the
        dummy-function speedup estimate is similar across environments."""
        framework = EvaluationFramework(num_samples=20, seed=42)
        table_iv = framework.evaluate_table_iv(
            kinds=(SolutionKind.SOFTWARE, SolutionKind.METHOD1_DUMMY)
        )
        table_vi = framework.evaluate_table_vi()
        rocket_speedup = table_iv.speedups()[SolutionKind.METHOD1_DUMMY]
        gem5_speedup = table_vi.speedup(SolutionKind.METHOD1_DUMMY)
        assert rocket_speedup > 1.0 and gem5_speedup > 1.0
        assert 0.5 < rocket_speedup / gem5_speedup < 2.0
