"""Paper-scale evaluation with the sharded multiprocess campaign engine.

The paper's tables average over 8,000 constrained-random samples.  This
example runs the Table IV experiment through the campaign engine — one cell
per solution, each cell's vector set sharded across worker processes — and
shows that the merged result matches the serial framework exactly when each
cell stays a single shard.

Run from the repository root::

    PYTHONPATH=src python examples/campaign_scale.py [samples] [workers]
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.core import reporting  # noqa: E402
from repro.core.campaign import run_campaign, table_iv_cells  # noqa: E402
from repro.core.evaluation import EvaluationFramework  # noqa: E402


def main(argv=None) -> None:
    argv = argv if argv is not None else sys.argv
    samples = int(argv[1]) if len(argv) > 1 else 200
    workers = int(argv[2]) if len(argv) > 2 else (os.cpu_count() or 1)

    # Fan the three Table IV cells out over worker processes.  With the
    # default shards_per_cell=1 every cell is still measured in a single
    # simulator run, so the merged table is bit-identical to the serial one.
    cells = table_iv_cells(num_samples=samples)
    result = run_campaign(cells, workers=workers)
    table = result.table_iv()
    print(reporting.render_table_iv(table))
    print()
    print(reporting.render_campaign(result))

    # Cross-check against the serial framework at the same seed.
    serial = EvaluationFramework(num_samples=samples).evaluate_table_iv()
    identical = serial.rows() == table.rows()
    print(f"\nserial evaluate_table_iv rows identical: {identical}")

    # For throughput-oriented campaigns, shard inside the cells too: the
    # measurement then has per-shard cache warm-up (documented in
    # docs/campaigns.md) but the run scales with the number of cores.
    sharded = run_campaign(
        cells, workers=workers, shards_per_cell=max(2, workers)
    )
    print(f"sharded run: {sharded.total_shards} shards, "
          f"wall {sharded.wall_seconds:.2f}s vs "
          f"simulator time {sharded.total_sim_wall_seconds:.2f}s")


if __name__ == "__main__":
    main()
