#!/usr/bin/env python
"""Telemetry-overhead smoke: the disabled observability path is free.

Two deterministic assertions, scriptable in CI, over every throughput
workload under every grid scheme:

1. *No residue* — with every observability sink left at ``None``,
   constructing and running the core makes zero Python calls into
   :mod:`repro.obs`.  Calls are counted with :func:`sys.setprofile`,
   so the verdict does not depend on host timing.
2. *Same machine* — an observability-enabled run (cycle accounting +
   pipeline tracing) simulates exactly the cycles and instructions of
   the plain run.  The test suite pins slot-level byte-identity on the
   golden grid; this repeats the check at bench scale as a crash
   canary.

Usage::

    PYTHONPATH=src python scripts/overhead_smoke.py [--scale 0.1]
"""

import argparse
import os
import sys

import repro.obs
from repro.core.factory import make_scheme
from repro.core.registry import grid_scheme_names
from repro.harness.bench import throughput_suite
from repro.obs import CycleAccount, PipeTracer
from repro.pipeline.config import MEGA
from repro.pipeline.core import OoOCore

OBS_DIR = os.path.dirname(os.path.abspath(repro.obs.__file__)) + os.sep


def run_counting(program, scheme, warm):
    """Build and run one obs-off core under a call profiler.

    Returns ``(result, calls, obs_calls)`` where ``obs_calls`` maps each
    :mod:`repro.obs` function entered to its call count.
    """
    calls = [0]
    obs_calls = {}

    def profiler(frame, event, _arg):
        if event != "call":
            return
        calls[0] += 1
        code = frame.f_code
        if code.co_filename.startswith(OBS_DIR):
            name = "%s:%s" % (os.path.basename(code.co_filename),
                              code.co_name)
            obs_calls[name] = obs_calls.get(name, 0) + 1

    sys.setprofile(profiler)
    try:
        core = OoOCore(program, config=MEGA, scheme=make_scheme(scheme),
                       warm_caches=warm)
        result = core.run()
    finally:
        sys.setprofile(None)
    return result, calls[0], obs_calls


def run_observed(program, scheme, warm):
    core = OoOCore(program, config=MEGA, scheme=make_scheme(scheme),
                   warm_caches=warm, account=CycleAccount(),
                   tracer=PipeTracer(limit=1000))
    return core.run()


def shape(result):
    return result.cycles, result.stats.committed_instructions


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1,
                        help="throughput-suite iteration multiplier"
                             " (default %(default)s)")
    args = parser.parse_args(argv)

    failures = []
    total_calls = 0
    for label, program, warm in throughput_suite(scale=args.scale):
        for scheme in grid_scheme_names():
            cell = "%s/%s" % (label, scheme)
            plain, calls, obs_calls = run_counting(program, scheme, warm)
            total_calls += calls
            if obs_calls:
                failures.append("%s: obs-off run called into repro.obs: %s"
                                % (cell, ", ".join(
                                    "%s x%d" % item
                                    for item in sorted(obs_calls.items()))))
            observed = run_observed(program, scheme, warm)
            if shape(observed) != shape(plain):
                failures.append(
                    "%s: observability changed the simulated machine:"
                    " %r != %r" % (cell, shape(observed), shape(plain)))
            print("%-32s cycles=%-7d calls=%-8d obs calls=%d"
                  % (cell, plain.cycles, calls, sum(obs_calls.values())))

    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    if failures:
        return 1
    print("ok: 0 repro.obs calls out of %d with sinks off; obs on"
          " simulates the identical machine" % total_calls)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
