"""O3PipeView tracing: golden byte stability and format invariants.

The golden fixture (``golden_pipeview.txt``) is the rendered trace of
a small deterministic loop with a mispredicting branch, so it pins
both record shapes at once: retired uops with real retire ticks and
squashed wrong-path uops with the ``retire:0`` viewer convention.
Regenerate (only on an intentional format or kernel change)::

    PYTHONPATH=src python tests/obs/test_pipeview.py --regenerate
"""

import pathlib
import sys

import pytest

from repro.core.factory import make_scheme
from repro.harness.bench import throughput_suite
from repro.isa import assemble
from repro.obs import PipeTracer, trace_pipeline
from repro.pipeline.config import SMALL
from repro.pipeline.core import OoOCore

GOLDEN_FILE = pathlib.Path(__file__).parent / "golden_pipeview.txt"

#: Six stages per uop plus the retire line.
LINES_PER_RECORD = 7

_STAGE_PREFIXES = (
    "O3PipeView:fetch:",
    "O3PipeView:decode:",
    "O3PipeView:rename:",
    "O3PipeView:dispatch:",
    "O3PipeView:issue:",
    "O3PipeView:complete:",
    "O3PipeView:retire:",
)


def golden_program():
    return assemble(
        """
            li   t0, 6
            li   t1, 0
            li   t2, 0
        loop:
            lw   t3, 0(t2)
            addi t1, t1, 7
            add  t1, t1, t3
            sw   t1, 4(t2)
            addi t2, t2, 4
            addi t0, t0, -1
            bne  t0, zero, loop
            halt
        """,
        name="pipeview-golden",
    )


def trace_golden(limit=200):
    tracer = PipeTracer(limit=limit)
    core = OoOCore(golden_program(), config=SMALL,
                   scheme=make_scheme("baseline"), tracer=tracer)
    result = core.run()
    return tracer, result


def test_golden_dump_is_byte_stable():
    tracer, _ = trace_golden()
    assert GOLDEN_FILE.is_file(), (
        "fixture missing — regenerate with "
        "'PYTHONPATH=src python %s --regenerate'" % __file__
    )
    assert tracer.render() == GOLDEN_FILE.read_text(), (
        "O3PipeView output drifted from the golden dump; viewers parse "
        "this byte format — regenerate only for an intentional change"
    )


def test_render_format_invariants():
    tracer, result = trace_golden()
    text = tracer.render()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == LINES_PER_RECORD * len(tracer.records)
    for index, line in enumerate(lines):
        assert line.startswith(_STAGE_PREFIXES[index % LINES_PER_RECORD])
    # Every committed instruction appears (limit was not hit) and the
    # wrong-path extras carry the squash convention.
    assert len(tracer.records) >= result.stats.committed_instructions
    assert tracer.dropped == 0


def test_squashed_uops_emit_retire_zero():
    tracer, result = trace_golden()
    squashed = [record for record in tracer.records if record[7] == 0]
    assert squashed, "mispredicting loop produced no squashed records"
    assert len(squashed) == len(tracer.records) - \
        result.stats.committed_instructions
    text = tracer.render()
    assert "O3PipeView:retire:0:store:0" in text


def test_limit_bounds_capture_and_counts_drops():
    tracer, result = trace_golden(limit=10)
    assert len(tracer.records) == 10
    assert tracer.dropped > 0
    # The bound keeps the *oldest* records: sequence numbers ascend
    # from the start of the program.
    seqs = [record[0] for record in tracer.records]
    assert seqs == sorted(seqs)


def test_empty_tracer_renders_empty_string():
    assert PipeTracer().render() == ""


def test_trace_pipeline_validates_benchmark():
    with pytest.raises(ValueError, match="unknown bench workload"):
        trace_pipeline("definitely-not-a-benchmark")


def test_trace_pipeline_runs_bench_workload():
    tracer, result = trace_pipeline(
        "streaming-warm", config=SMALL, scale=0.02, limit=64)
    assert result.halted
    assert 0 < len(tracer.records) <= 64
    assert tracer.render().startswith("O3PipeView:fetch:")
    # The core runs the campaign configuration (trace replay and the
    # cycle account), which traces exactly what a plain core does.
    assert result.stats.extra["cycacct.cycles"] == result.cycles
    ((program, warm),) = [(program, warm) for label, program, warm
                          in throughput_suite(scale=0.02)
                          if label == "streaming-warm"]
    plain = PipeTracer(limit=64)
    OoOCore(program, config=SMALL, warm_caches=warm, tracer=plain).run()
    assert tracer.render() == plain.render()


def regenerate():
    tracer, result = trace_golden()
    GOLDEN_FILE.write_text(tracer.render())
    print("recorded %d records (%d squashed) to %s"
          % (len(tracer.records),
             len(tracer.records) - result.stats.committed_instructions,
             GOLDEN_FILE))


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        print("usage: python %s --regenerate" % sys.argv[0])
        raise SystemExit(2)
    regenerate()
