"""Text parser for the PTX subset.

The workloads in :mod:`repro.workloads` are written as PTX-subset text and
parsed here into :class:`repro.ptx.module.Kernel` objects.  The accepted
grammar mirrors real PTX closely enough that snippets lifted from actual
``nvcc`` output (modulo unsupported opcodes) parse unchanged::

    .entry bfs_kernel (
        .param .u64 g_graph_mask,
        .param .u32 no_of_nodes
    )
    {
        .reg .u32 %r<16>;
        .shared .b8 sdata[512];
        mov.u32        %r1, %ctaid.x;
        mad.lo.u32     %r3, %r1, 256, %r2;
        ld.param.u64   %rd1, [g_graph_mask];
        setp.ge.u32    %p1, %r3, %r4;
    @%p1 bra           EXIT;
        ld.global.u32  %r5, [%rd4+4];
    EXIT:
        exit;
    }

Supported directives: ``.entry``, ``.param`` (in the signature), ``.reg``
(ignored), ``.shared`` (named buffers; symbol references are resolved to
byte offsets in the CTA's shared space).
"""

from __future__ import annotations

import re
from typing import Dict, List

from .errors import PTXSyntaxError, PTXValidationError
from .isa import (
    ATOM_OPS,
    CMP_OPS,
    IGNORED_MODIFIERS,
    MUL_MODES,
    OPCODES,
    SPECIAL_REGISTERS,
    DType,
    Imm,
    Instruction,
    MemRef,
    Reg,
    SReg,
    Sym,
    dtype_from_name,
    space_from_name,
)
from .module import Kernel, Module, Param

_COMMENT_BLOCK = re.compile(r"/\*.*?\*/", re.S)
_COMMENT_LINE = re.compile(r"//[^\n]*")

_ENTRY_RE = re.compile(r"\.entry\s+([A-Za-z_][\w$]*)\s*\(")
_PARAM_RE = re.compile(r"\.param\s+\.(\w+)\s+([A-Za-z_][\w$]*)")
_SHARED_RE = re.compile(
    r"\.shared\s+\.align\s+\d+\s+\.(\w+)\s+([A-Za-z_][\w$]*)\s*\[(\d+)\]\s*;"
    r"|\.shared\s+\.(\w+)\s+([A-Za-z_][\w$]*)\s*\[(\d+)\]\s*;")
_REG_DECL_RE = re.compile(r"\.reg\s+[^;]*;")
_LABEL_RE = re.compile(r"^([A-Za-z_$][\w$]*)\s*:\s*(.*)$")
_GUARD_RE = re.compile(r"^@(!?)(%p\w+)\s+(.*)$")
_MEMREF_RE = re.compile(r"^\[\s*([^\]\s+]+)\s*(?:\+\s*(-?(?:0x[0-9a-fA-F]+|\d+)))?\s*\]$")
_INT_RE = re.compile(r"^-?(?:0x[0-9a-fA-F]+|\d+)$")
_FLOAT_RE = re.compile(r"^-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?$")
#: the characters the splitters act on; everything between is skipped
_OPERAND_MARK = re.compile(r"[\[\]{},]")
_PARENS = re.compile(r"[()]")
_BRACES = re.compile(r"[{}]")


def _strip_comments(text):
    text = _COMMENT_BLOCK.sub(" ", text)
    return _COMMENT_LINE.sub("", text)


def _split_operands(text):
    """Split an operand list on commas that are not inside brackets or
    vector braces.  Empty pieces are kept except a trailing one."""
    parts, depth, start = [], 0, 0
    for m in _OPERAND_MARK.finditer(text):
        ch = m.group()
        if ch == ",":
            if depth == 0:
                parts.append(text[start:m.start()])
                start = m.end()
        elif ch in "[{":
            depth += 1
        else:
            depth -= 1
    parts.append(text[start:])
    parts = [part.strip() for part in parts]
    if not parts[-1]:
        parts.pop()
    return parts


class _KernelText:
    """The raw text of one kernel body plus its signature."""

    def __init__(self, name, param_text, body, line_no):
        self.name = name
        self.param_text = param_text
        self.body = body
        self.line_no = line_no


def _close_of(text, pos, marks):
    """The index just past the close that balances an open bracket
    before ``pos``, or -1; ``marks`` matches the open and close
    bracket of one kind."""
    depth = 1
    for m in marks.finditer(text, pos):
        if m.group() in "({":
            depth += 1
        else:
            depth -= 1
            if not depth:
                return m.end()
    return -1


def _split_kernels(text):
    """Find every ``.entry name ( ... ) { ... }`` region in the module text."""
    kernels = []
    pos = 0
    line_no, counted = 1, 0
    while True:
        m = _ENTRY_RE.search(text, pos)
        if not m:
            break
        name = m.group(1)
        # signature: up to the matching close paren
        i = _close_of(text, m.end(), _PARENS)
        if i < 0:
            raise PTXSyntaxError("unterminated parameter list for %r" % name)
        param_text = text[m.end():i - 1]
        # body: next '{' to its matching '}'
        open_idx = text.find("{", i)
        if open_idx < 0:
            raise PTXSyntaxError("missing body for kernel %r" % name)
        j = _close_of(text, open_idx + 1, _BRACES)
        if j < 0:
            raise PTXSyntaxError("unterminated body for kernel %r" % name)
        body = text[open_idx + 1:j - 1]
        line_no += text.count("\n", counted, m.start())
        counted = m.start()
        kernels.append(_KernelText(name, param_text, body, line_no))
        pos = j
    return kernels


class Parser:
    """Parses PTX-subset text into :class:`Kernel`/:class:`Module` objects."""

    def parse_module(self, text, strict=False):
        """Parse a translation unit; returns a :class:`Module`.

        With ``strict=True`` the static verifier
        (:mod:`repro.ptx.verify`) runs over the parsed module and any
        error-severity diagnostic raises
        :class:`~repro.ptx.errors.PTXVerificationError`.
        """
        clean = _strip_comments(text)
        module = Module()
        regions = _split_kernels(clean)
        if not regions:
            raise PTXSyntaxError("no .entry kernel found")
        for region in regions:
            module.add(self._parse_kernel(region))
        if strict:
            from .verify import check_module
            check_module(module)
        return module

    def parse_kernel(self, text, strict=False):
        """Parse text containing exactly one kernel; returns the :class:`Kernel`."""
        module = self.parse_module(text, strict=strict)
        kernels = list(module)
        if len(kernels) != 1:
            raise PTXSyntaxError(
                "expected exactly one kernel, found %d" % len(kernels))
        return kernels[0]

    # -- kernel-level parsing ------------------------------------------------

    def _parse_kernel(self, region):
        params = self._parse_params(region.param_text)
        body = _REG_DECL_RE.sub("", region.body)
        shared_vars, shared_size, body = self._collect_shared(body)

        instructions: List[Instruction] = []
        labels: Dict[str, int] = {}
        pending_labels: List[str] = []

        for line_no, raw in enumerate(body.split("\n"), region.line_no):
            line = raw.strip()
            while line:
                m = _LABEL_RE.match(line)
                if m and m.group(1) not in OPCODES:
                    label = m.group(1)
                    if label in labels or label in pending_labels:
                        raise PTXSyntaxError("duplicate label %r" % label,
                                             line_no, raw)
                    pending_labels.append(label)
                    line = m.group(2).strip()
                    continue
                break
            if not line:
                continue
            for stmt in line.split(";"):
                stmt = stmt.strip()
                if not stmt:
                    continue
                inst = self._parse_instruction(stmt, shared_vars, line_no, raw)
                for label in pending_labels:
                    labels[label] = len(instructions)
                pending_labels = []
                instructions.append(inst)
        if pending_labels:
            # trailing labels point past the end; anchor them on an implicit
            # exit if the author forgot one — otherwise validation will fail.
            for label in pending_labels:
                labels[label] = len(instructions)
            instructions.append(Instruction(opcode="exit"))
        return Kernel(region.name, params, instructions, labels,
                      shared_size=shared_size)

    def _parse_params(self, text):
        params = []
        offset = 0
        for m in _PARAM_RE.finditer(text):
            dtype = dtype_from_name(m.group(1))
            # parameters are aligned to their own size, like real PTX
            align = dtype.nbytes
            offset = (offset + align - 1) // align * align
            params.append(Param(name=m.group(2), dtype=dtype, offset=offset,
                                is_pointer=dtype in (DType.U64, DType.B64)))
            offset += dtype.nbytes
        return params

    def _collect_shared(self, body):
        """Extract ``.shared`` buffer declarations; returns (vars, size, body)."""
        shared_vars: Dict[str, int] = {}
        offset = 0

        def _replace(m):
            nonlocal offset
            dtype_name = m.group(1) or m.group(4)
            name = m.group(2) or m.group(5)
            count = int(m.group(3) or m.group(6))
            dtype = dtype_from_name(dtype_name)
            offset = (offset + 15) // 16 * 16  # 16-byte align each buffer
            shared_vars[name] = offset
            offset += count * dtype.nbytes
            return ""

        body = _SHARED_RE.sub(_replace, body)
        return shared_vars, offset, body

    # -- instruction-level parsing --------------------------------------------

    def _parse_instruction(self, stmt, shared_vars, line_no, raw):
        pred = None
        m = _GUARD_RE.match(stmt)
        if m:
            pred = (Reg(m.group(2)), m.group(1) == "!")
            stmt = m.group(3).strip()

        parts = stmt.split(None, 1)
        mnemonic = parts[0]
        operand_text = parts[1] if len(parts) > 1 else ""

        tokens = mnemonic.split(".")
        opcode = tokens[0]
        if opcode not in OPCODES:
            raise PTXSyntaxError("unsupported opcode %r" % opcode, line_no, raw)
        inst = Instruction(opcode=opcode, pred=pred, line=line_no)
        self._apply_suffixes(inst, tokens[1:], line_no, raw)

        operands = [self._parse_operand(t, inst, shared_vars, line_no, raw)
                    for t in _split_operands(operand_text)]
        self._assign_operands(inst, operands, line_no, raw)
        return inst

    def _apply_suffixes(self, inst, suffixes, line_no, raw):
        modifiers = []
        for tok in suffixes:
            if tok in ("param", "global", "shared", "local", "const", "tex") \
                    and inst.space is None and inst.is_memory:
                inst.space = space_from_name(tok)
            elif inst.opcode == "setp" and tok in CMP_OPS and inst.cmp_op is None:
                inst.cmp_op = tok
            elif inst.opcode in ("atom", "red") and tok in ATOM_OPS \
                    and inst.atom_op is None:
                inst.atom_op = tok
            elif inst.opcode in ("mul", "mad") and tok in MUL_MODES:
                inst.mul_mode = tok
            elif tok in ("v2", "v4") and inst.opcode in ("ld", "st"):
                inst.vector = int(tok[1])
            elif tok in IGNORED_MODIFIERS:
                modifiers.append(tok)
            else:
                try:
                    dtype = dtype_from_name(tok)
                except PTXValidationError:
                    raise PTXSyntaxError(
                        "unknown suffix .%s on %s" % (tok, inst.opcode),
                        line_no, raw) from None
                if inst.dtype is None:
                    inst.dtype = dtype
                else:
                    # second type suffix (e.g. cvt.u64.u32): keep as modifier
                    modifiers.append(tok)
        inst.modifiers = tuple(modifiers)
        if inst.opcode == "setp" and inst.cmp_op is None:
            raise PTXSyntaxError("setp requires a comparison op", line_no, raw)
        if inst.opcode in ("atom", "red") and inst.atom_op is None:
            raise PTXSyntaxError("%s requires an operation" % inst.opcode,
                                 line_no, raw)
        if inst.is_memory and inst.space is None:
            raise PTXSyntaxError(
                "%s requires a state space" % inst.opcode, line_no, raw)

    def _parse_operand(self, text, inst, shared_vars, line_no, raw):
        if text.startswith("{") and text.endswith("}"):
            # vector register group: {%f1, %f2, ...}
            inner = [t.strip() for t in text[1:-1].split(",") if t.strip()]
            return tuple(self._parse_scalar(t, shared_vars, line_no, raw)
                         for t in inner)
        m = _MEMREF_RE.match(text)
        if m:
            base = self._parse_scalar(m.group(1), shared_vars, line_no, raw,
                                      memref_of=inst)
            offset = int(m.group(2), 0) if m.group(2) else 0
            return MemRef(base=base, offset=offset)
        return self._parse_scalar(text, shared_vars, line_no, raw)

    def _parse_scalar(self, text, shared_vars, line_no, raw, memref_of=None):
        if text.startswith("%"):
            if text in SPECIAL_REGISTERS:
                return SReg(text)
            return Reg(text)
        if _INT_RE.match(text):
            return Imm(int(text, 0))
        if _FLOAT_RE.match(text):
            return Imm(float(text))
        if text in shared_vars:
            # shared-buffer symbol: resolves to its byte offset in the CTA's
            # shared space (both as an address operand and as a mov source)
            return Imm(shared_vars[text])
        if re.match(r"^[A-Za-z_$][\w$]*$", text):
            return Sym(text)
        raise PTXSyntaxError("cannot parse operand %r" % text, line_no, raw)

    def _assign_operands(self, inst, operands, line_no, raw):
        if inst.is_store:
            if len(operands) != 2 or not isinstance(operands[0], MemRef):
                raise PTXSyntaxError("st expects [addr], value", line_no, raw)
            values = operands[1]
            if inst.vector > 1:
                if not isinstance(values, tuple) \
                        or len(values) != inst.vector:
                    raise PTXSyntaxError(
                        "st.v%d expects a {...} group of %d registers"
                        % (inst.vector, inst.vector), line_no, raw)
                inst.srcs = (operands[0],) + values
            else:
                inst.srcs = tuple(operands)
        elif inst.is_load:
            if len(operands) != 2 or not isinstance(operands[1], MemRef):
                raise PTXSyntaxError("ld expects dest, [addr]", line_no, raw)
            dests = operands[0]
            if inst.vector > 1:
                if not isinstance(dests, tuple) \
                        or len(dests) != inst.vector:
                    raise PTXSyntaxError(
                        "ld.v%d expects a {...} group of %d registers"
                        % (inst.vector, inst.vector), line_no, raw)
                inst.dests = dests
            else:
                inst.dests = (dests,)
            inst.srcs = (operands[1],)
        elif inst.opcode == "red":
            # a reduction returns no value: red.op [addr], operand
            if len(operands) < 2 or not isinstance(operands[0], MemRef):
                raise PTXSyntaxError("red expects [addr], value", line_no,
                                     raw)
            inst.srcs = tuple(operands)
        elif inst.is_atomic:
            if len(operands) < 2 or not isinstance(operands[1], MemRef):
                raise PTXSyntaxError("atom expects dest, [addr], ...", line_no, raw)
            inst.dests = (operands[0],)
            inst.srcs = tuple(operands[1:])
        elif inst.is_branch:
            if len(operands) != 1 or not isinstance(operands[0], Sym):
                raise PTXSyntaxError("bra expects a label", line_no, raw)
            inst.target = operands[0].name
        elif inst.opcode in ("bar", "membar", "exit", "ret"):
            inst.srcs = tuple(operands)
        else:
            if not operands:
                raise PTXSyntaxError(
                    "%s expects operands" % inst.opcode, line_no, raw)
            inst.dests = (operands[0],)
            inst.srcs = tuple(operands[1:])


def parse_module(text, strict=False):
    """Convenience wrapper: parse a multi-kernel translation unit.

    ``strict=True`` additionally runs the static verifier and raises
    :class:`~repro.ptx.errors.PTXVerificationError` on any error.
    """
    return Parser().parse_module(text, strict=strict)


def parse_kernel(text, strict=False):
    """Convenience wrapper: parse text containing exactly one kernel."""
    return Parser().parse_kernel(text, strict=strict)
