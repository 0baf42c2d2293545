#!/usr/bin/env python
"""Batch-replay equivalence smoke: the fast path cannot drift.

Runs the canonical throughput suite twice under every grid scheme —
batch replay on (the default) and forced off
(``OoOCore(batch_replay=False)``) — and asserts the simulated machine
is identical: same cycles, same committed instructions, same full
``to_dict()`` snapshot per workload.  Batch replay is a host-side
optimisation of *when Python completes the uops*, never of what the
simulated pipeline does; this smoke keeps that invariant pinned at
bench scale so the kernel step can never diverge from the stepping
path unnoticed.

Also asserts engagement: across the suite the batch path must actually
fire (non-zero batch events under the default scheme set), so the
equivalence cannot pass vacuously with batching disabled by accident.

Usage::

    PYTHONPATH=src python scripts/batch_replay_smoke.py [--scale 0.1]
"""

import argparse
import sys

from repro.core.factory import make_scheme
from repro.core.registry import grid_scheme_names
from repro.harness.bench import throughput_suite
from repro.isa.trace import record_trace
from repro.pipeline.config import MEGA
from repro.pipeline.core import OoOCore


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1,
                        help="suite iteration multiplier (default 0.1)")
    args = parser.parse_args(argv)

    suite = throughput_suite(scale=args.scale)
    traces = {label: record_trace(program) for label, program, _ in suite}
    total_batch_events = 0
    checked = 0
    for scheme_name in grid_scheme_names():
        for label, program, warm in suite:
            runs = {}
            for batching in (True, False):
                core = OoOCore(program, config=MEGA,
                               scheme=make_scheme(scheme_name),
                               warm_caches=warm, trace=traces[label],
                               batch_replay=batching)
                result = core.run()
                if batching:
                    total_batch_events += core.replay_batch_events
                elif core.replay_batch_events:
                    print("FAIL: %s/%s ran batches with batching off"
                          % (scheme_name, label))
                    return 1
                runs[batching] = result
            on, off = runs[True], runs[False]
            if (on.cycles != off.cycles
                    or on.stats.committed_instructions
                    != off.stats.committed_instructions):
                print("FAIL: %s/%s diverged: %d/%d cycles, %d/%d instrs"
                      % (scheme_name, label, on.cycles, off.cycles,
                         on.stats.committed_instructions,
                         off.stats.committed_instructions))
                return 1
            if on.to_dict() != off.to_dict():
                print("FAIL: %s/%s full-snapshot mismatch with identical"
                      " cycle counts" % (scheme_name, label))
                return 1
            checked += 1
    if total_batch_events == 0:
        print("FAIL: batch replay never engaged across %d cells — the"
              " equivalence above is vacuous" % checked)
        return 1
    print("batch-replay smoke: %d scheme x workload cells identical"
          " on/off (%d batch events engaged)"
          % (checked, total_batch_events))
    return 0


if __name__ == "__main__":
    sys.exit(main())
