#!/usr/bin/env python3
"""Financial-workload example: telco-style billing with decimal64 arithmetic.

The paper motivates decimal hardware with "financial applications [that] need
to keep the quality of their customer service concurrently with the back-end
computing process".  This example models such a back-end batch: N call records
are rated (duration x tariff) in decimal64, exactly the operation the
co-design accelerates.

It then answers the capacity-planning question the framework exists for: how
many records per second could an embedded Rocket-class core rate with and
without the Method-1 accelerator?

Usage::

    python examples/financial_billing.py [num_records]
"""

import random
import sys

from repro.core import EvaluationFramework
from repro.core.method1 import FunctionalHardware, Method1HostModel
from repro.decnumber import DecNumber, decimal64
from repro.testgen.config import SolutionKind
from repro.verification.database import VerificationVector


def make_call_records(count: int, seed: int = 99):
    """Generate (duration_seconds, tariff_per_second) pairs as decimal64."""
    rng = random.Random(seed)
    records = []
    for index in range(count):
        duration = DecNumber(0, rng.randint(1, 7200 * 100), -2)        # seconds
        tariff = DecNumber(0, rng.randint(1, 99999), -7)               # $/second
        records.append(
            VerificationVector(x=duration, y=tariff, operand_class="billing",
                               index=index)
        )
    return records


def main() -> None:
    num_records = int(sys.argv[1]) if len(sys.argv) > 1 else 120
    records = make_call_records(num_records)

    # Functional rating pass (host model of Method-1, bit-exact results).
    rater = Method1HostModel(hardware=FunctionalHardware())
    total = DecNumber(0, 0, -2)
    from repro.decnumber import DECIMAL64_CONTEXT, add

    for record in records:
        charge = rater.multiply(record.x, record.y)
        total = add(total, charge, DECIMAL64_CONTEXT())
    print(f"Rated {num_records} call records; total charge: {total} USD")
    print(f"(encoded as decimal64: 0x{decimal64.encode(total):016x})")

    # Capacity planning: cycles per rating operation on the embedded core.
    framework = EvaluationFramework(num_samples=num_records, seed=7)
    framework.vectors = records
    frequency_hz = framework.rocket_config.frequency_hz
    print(f"\nRocket-class core at {frequency_hz / 1e9:.1f} GHz:")
    for kind in (SolutionKind.SOFTWARE, SolutionKind.METHOD1):
        report = framework.run_cycle_accurate(kind)
        rate = frequency_hz / report.avg_total_cycles
        print(
            f"  {report.solution_name:<36s} {report.avg_total_cycles:7.0f} "
            f"cycles/record  ->  {rate / 1e6:6.2f} M records/s"
        )


if __name__ == "__main__":
    main()
