"""Per-uop pipeline event traces in gem5 O3PipeView format.

A :class:`PipeTracer` is handed to :class:`~repro.pipeline.core.
OoOCore` at construction (``tracer=``).  The core reports every
retired uop (at commit) and every squashed uop (captured *before* the
issue queue destroys its scheduler state), and :meth:`PipeTracer.
render` emits the standard ``O3PipeView:`` line protocol that Konata
and gem5's own viewers consume.

Stage mapping: this model's batched front end has no distinct
decode/rename/dispatch latencies, so those three stages all carry the
rename-dispatch cycle; ``fetch`` is the fetch-buffer entry cycle.
Ticks are raw cycle numbers (viewers infer the period).  Squashed
uops emit ``retire:0`` — the viewer convention for never-retired.
Fetch-buffer entries squashed before rename are not traced.
"""

from repro.pipeline.issue_queue import IQ_ISSUED, IQ_NONE


class PipeTracer:
    """Bounded per-uop event recorder (oldest ``limit`` uops kept)."""

    __slots__ = ("limit", "records", "dropped")

    def __init__(self, limit=5000):
        self.limit = limit
        self.records = []
        self.dropped = 0

    def attach(self, core):
        """Construction-time hook (symmetry with CycleAccount)."""

    # -- core-facing sinks ------------------------------------------------

    def on_retire(self, uop, cycle):
        self._capture(uop, cycle)

    def on_squash_batch(self, uops, cycle):
        for uop in uops:
            self._capture(uop, 0)

    def _capture(self, uop, retire_tick):
        if len(self.records) >= self.limit:
            self.dropped += 1
            return
        rename = uop.rename_cycle if uop.rename_cycle is not None else 0
        if uop.op_is_store:
            issued = uop.addr_issued or uop.data_issued or uop.completed
        else:
            # Scheduler state is authoritative for non-memory uops (the
            # memory slot group, issue flags included, is stale across
            # pool recycles): IQ_NONE/IQ_ISSUED on an in-flight uop
            # means it left the scheduler, i.e. it issued.
            issued = (uop.complete_cycle is not None
                      or uop.iq_status in (IQ_NONE, IQ_ISSUED))
        issue = uop.issue_cycle
        # issue_cycle predating this life's rename is a stale pooled
        # value; squashed never-issued uops report tick 0.
        if not issued or issue is None or issue < rename:
            issue = 0
        complete = uop.complete_cycle
        if complete is None:
            complete = 0
        self.records.append((
            uop.seq, uop.pc, str(uop.instr),
            uop.fetch_cycle, rename, issue, complete, retire_tick,
        ))

    # -- rendering --------------------------------------------------------

    def render(self):
        """The full trace as O3PipeView text (one string)."""
        lines = []
        append = lines.append
        for seq, pc, disasm, fetch, rename, issue, complete, retire \
                in self.records:
            append("O3PipeView:fetch:%d:0x%08x:0:%d:%s"
                   % (fetch, pc, seq, disasm))
            append("O3PipeView:decode:%d" % rename)
            append("O3PipeView:rename:%d" % rename)
            append("O3PipeView:dispatch:%d" % rename)
            append("O3PipeView:issue:%d" % issue)
            append("O3PipeView:complete:%d" % complete)
            append("O3PipeView:retire:%d:store:0" % retire)
        if not lines:
            return ""
        return "\n".join(lines) + "\n"


def trace_pipeline(benchmark, config=None, scheme_name="baseline",
                   scheme_kwargs=None, scale=1.0, limit=5000):
    """Trace one throughput-suite workload; returns (tracer, result).

    ``benchmark`` names a workload from the canonical throughput suite
    (:data:`repro.harness.bench.THROUGHPUT_LABELS`) so pipeview output
    is directly comparable with ``profile`` output.
    """
    from repro.core.factory import make_scheme
    from repro.harness.bench import THROUGHPUT_LABELS, throughput_suite
    from repro.pipeline.config import MEGA
    from repro.pipeline.core import OoOCore

    if benchmark not in THROUGHPUT_LABELS:
        raise ValueError("unknown bench workload %r (choose from %s)"
                         % (benchmark, ", ".join(THROUGHPUT_LABELS)))
    for label, program, warm in throughput_suite(scale=scale):
        if label == benchmark:
            break
    tracer = PipeTracer(limit=limit)
    core = OoOCore(
        program,
        config=config or MEGA,
        scheme=make_scheme(scheme_name, **dict(scheme_kwargs or {})),
        warm_caches=warm,
        tracer=tracer,
    )
    result = core.run()
    return tracer, result
