"""Static instruction definitions and classification metadata.

An :class:`Instruction` is a *static* record: opcode plus register and
immediate operands.  Dynamic state (sequence numbers, renamed physical
registers, readiness) lives in the pipeline's micro-op wrapper, never
here, so one :class:`Instruction` can be executed many times (loops).

Classification metadata drives both the functional interpreter and the
secure-speculation schemes:

* ``is_transmitter`` marks instructions whose *execution* has an
  operand-dependent observable effect: loads and stores (the address
  selects a cache set) and branches/indirect jumps (the outcome steers
  the front end).  STT delays tainted transmitters; plain arithmetic is
  free to execute on tainted data.
* ``latency`` is the functional-unit latency in cycles used by the
  execute stage.
"""

import enum
from dataclasses import dataclass, field
from functools import cached_property


class Opcode(enum.Enum):
    """Operation codes of the model ISA."""

    # Register-register ALU.
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLT = "slt"
    SLTU = "sltu"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    # Register-immediate ALU.
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLTI = "slti"
    SLLI = "slli"
    SRLI = "srli"
    SRAI = "srai"
    LI = "li"
    # Multiply / divide.
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    # Memory.
    LW = "lw"
    SW = "sw"
    # Control flow.
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLTU = "bltu"
    BGEU = "bgeu"
    JAL = "jal"
    JALR = "jalr"
    # Misc.
    NOP = "nop"
    HALT = "halt"

    def __repr__(self):
        return "Opcode.%s" % self.name


@dataclass(frozen=True)
class OpcodeInfo:
    """Classification and timing metadata for one opcode."""

    #: Functional-unit latency in cycles (agen latency for memory ops;
    #: the cache adds its own access latency on top).
    latency: int
    #: Reads rs1 / rs2; writes rd.
    reads_rs1: bool = False
    reads_rs2: bool = False
    writes_rd: bool = False
    is_load: bool = False
    is_store: bool = False
    is_branch: bool = False
    is_jump: bool = False
    is_mul: bool = False
    is_div: bool = False
    #: Execution has an operand-dependent observable effect.
    is_transmitter: bool = False

    @cached_property
    def casts_c_shadow(self):
        """Needs a branch checkpoint (casts a control shadow): every
        conditional branch plus the one predicted-indirect jump (JALR —
        the only jump that reads a register).  Cached for the rename
        dispatcher's per-entry admission gate."""
        return self.is_branch or (self.is_jump and self.reads_rs1)


_ALU = OpcodeInfo(latency=1, reads_rs1=True, reads_rs2=True, writes_rd=True)
_ALUI = OpcodeInfo(latency=1, reads_rs1=True, writes_rd=True)
_BR = OpcodeInfo(
    latency=1, reads_rs1=True, reads_rs2=True, is_branch=True, is_transmitter=True
)

OPCODE_INFO = {
    Opcode.ADD: _ALU,
    Opcode.SUB: _ALU,
    Opcode.AND: _ALU,
    Opcode.OR: _ALU,
    Opcode.XOR: _ALU,
    Opcode.SLT: _ALU,
    Opcode.SLTU: _ALU,
    Opcode.SLL: _ALU,
    Opcode.SRL: _ALU,
    Opcode.SRA: _ALU,
    Opcode.ADDI: _ALUI,
    Opcode.ANDI: _ALUI,
    Opcode.ORI: _ALUI,
    Opcode.XORI: _ALUI,
    Opcode.SLTI: _ALUI,
    Opcode.SLLI: _ALUI,
    Opcode.SRLI: _ALUI,
    Opcode.SRAI: _ALUI,
    Opcode.LI: OpcodeInfo(latency=1, writes_rd=True),
    Opcode.MUL: OpcodeInfo(
        latency=3, reads_rs1=True, reads_rs2=True, writes_rd=True, is_mul=True
    ),
    Opcode.DIV: OpcodeInfo(
        latency=12, reads_rs1=True, reads_rs2=True, writes_rd=True, is_div=True
    ),
    Opcode.REM: OpcodeInfo(
        latency=12, reads_rs1=True, reads_rs2=True, writes_rd=True, is_div=True
    ),
    Opcode.LW: OpcodeInfo(
        latency=1, reads_rs1=True, writes_rd=True, is_load=True, is_transmitter=True
    ),
    Opcode.SW: OpcodeInfo(
        latency=1, reads_rs1=True, reads_rs2=True, is_store=True, is_transmitter=True
    ),
    Opcode.BEQ: _BR,
    Opcode.BNE: _BR,
    Opcode.BLT: _BR,
    Opcode.BGE: _BR,
    Opcode.BLTU: _BR,
    Opcode.BGEU: _BR,
    Opcode.JAL: OpcodeInfo(latency=1, writes_rd=True, is_jump=True),
    Opcode.JALR: OpcodeInfo(
        latency=1, reads_rs1=True, writes_rd=True, is_jump=True, is_transmitter=True
    ),
    Opcode.NOP: OpcodeInfo(latency=1),
    Opcode.HALT: OpcodeInfo(latency=1),
}


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    Fields not used by an opcode are left at their defaults; e.g. a
    ``beq`` has no destination register and stores its branch target in
    ``imm`` (an absolute instruction index).

    Memory addressing is ``rs1 + imm`` for both ``lw`` and ``sw``; the
    store reads its data from ``rs2``.
    """

    op: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    #: Optional label for diagnostics / trace output.
    label: str = field(default="", compare=False)

    @cached_property
    def info(self):
        """The :class:`OpcodeInfo` classification record.

        Cached per instance: static instructions are re-executed every
        loop iteration, and the enum-keyed table lookup shows up in the
        simulator's hot paths (``cached_property`` stores straight into
        ``__dict__``, bypassing the frozen-dataclass ``__setattr__``).
        """
        return OPCODE_INFO[self.op]

    @property
    def is_load(self):
        return self.info.is_load

    @property
    def is_store(self):
        return self.info.is_store

    @property
    def is_branch(self):
        return self.info.is_branch

    @property
    def is_jump(self):
        return self.info.is_jump

    @property
    def is_control(self):
        """Branch or jump — anything that can redirect the front end."""
        info = self.info
        return info.is_branch or info.is_jump

    @property
    def is_transmitter(self):
        return self.info.is_transmitter

    @cached_property
    def writes_rd(self):
        return self.info.writes_rd and self.rd != 0

    @cached_property
    def source_regs(self):
        """Architectural source register indices actually read.

        Reads of ``x0`` are omitted: the zero register is never renamed
        and can never carry a taint.  Cached tuple: static instructions
        are renamed once per loop iteration and every scheme's rename
        hook walks the sources, so rebuilding the container per call
        shows up in the simulator profile.
        """
        info = self.info
        srcs = ()
        if info.reads_rs1 and self.rs1 != 0:
            srcs += (self.rs1,)
        if info.reads_rs2 and self.rs2 != 0:
            srcs += (self.rs2,)
        return srcs

    @cached_property
    def address_source_regs(self):
        """Source registers feeding address generation (memory ops only)."""
        if (self.is_load or self.is_store) and self.rs1 != 0:
            return (self.rs1,)
        return ()

    @cached_property
    def data_source_regs(self):
        """Source registers feeding the store-data half of a store."""
        if self.is_store and self.rs2 != 0:
            return (self.rs2,)
        return ()

    def __str__(self):
        op = self.op.value
        if self.op in (Opcode.NOP, Opcode.HALT):
            return op
        if self.op == Opcode.LI:
            return "%s x%d, %d" % (op, self.rd, self.imm)
        if self.is_load:
            return "%s x%d, %d(x%d)" % (op, self.rd, self.imm, self.rs1)
        if self.is_store:
            return "%s x%d, %d(x%d)" % (op, self.rs2, self.imm, self.rs1)
        if self.is_branch:
            target = self.label or str(self.imm)
            return "%s x%d, x%d, %s" % (op, self.rs1, self.rs2, target)
        if self.op == Opcode.JAL:
            target = self.label or str(self.imm)
            return "%s x%d, %s" % (op, self.rd, target)
        if self.op == Opcode.JALR:
            return "%s x%d, x%d, %d" % (op, self.rd, self.rs1, self.imm)
        if self.info.reads_rs2:
            return "%s x%d, x%d, x%d" % (op, self.rd, self.rs1, self.rs2)
        return "%s x%d, x%d, %d" % (op, self.rd, self.rs1, self.imm)
