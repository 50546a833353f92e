"""Reaching-definitions analysis over a PTX-subset kernel.

The paper's load classifier "traces the dependency graphs backwards for a
source register that is used in the address computation of a load"
(Section V).  Tracing backwards requires knowing, at each instruction, which
instructions may have defined each source register — the classic
*reaching definitions* dataflow problem [Aho et al., Compilers, 2nd ed.],
which the paper cites as the underlying machinery.

Definitions are identified by instruction index; the pseudo-definition
:data:`ENTRY` stands for "live-in at kernel entry" (a register read before
any write — legal PTX never does this, but the analysis must be total).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from ..ptx.isa import Reg

#: Pseudo definition site: the register was never written on some path.
ENTRY = -1

_ENTRY_SET = frozenset((ENTRY,))


class ReachingDefs:
    """Computes and caches reaching definitions for one kernel.

    After construction, :meth:`reaching` answers "which definition sites of
    register ``reg`` may reach instruction ``inst_index``?".
    """

    def __init__(self, kernel, cfg=None):
        self.kernel = kernel
        self.cfg = cfg if cfg is not None else kernel.cfg
        self._block_in: List[Dict[str, FrozenSet[int]]] = []
        self._solve()
        # per-instruction states, filled a whole block at a time by
        # :meth:`reaching`
        self._cache: Dict[int, Dict[str, FrozenSet[int]]] = {}

    # -- dataflow ------------------------------------------------------------

    def _apply(self, state, inst, index):
        """Apply one instruction's definitions to a mutable state dict."""
        for name in inst.write_reg_names:
            if inst.pred is None:
                state[name] = frozenset((index,))
            else:
                # a predicated write may not execute: old defs survive
                old = state.get(name, _ENTRY_SET)
                state[name] = old | frozenset((index,))

    def _transfer_block(self, in_state, block):
        state = dict(in_state)
        for i in range(block.start, block.end):
            self._apply(state, self.kernel.instructions[i], i)
        return state

    def _register_universe(self):
        """Every register name the kernel mentions."""
        names = set()
        for inst in self.kernel.instructions:
            names.update(inst.write_reg_names)
            names.update(inst.read_reg_names)
        return names

    def _solve(self):
        blocks = self.cfg.blocks
        # The entry block is seeded with every register mapped to ENTRY; the
        # pseudo-definition then flows (and is killed by real definitions)
        # like any other, so "may be live-in" is tracked path-sensitively.
        entry_in = {name: _ENTRY_SET for name in self._register_universe()}
        in_state: List[Dict[str, FrozenSet[int]]] = [dict() for _ in blocks]
        out_state: List[Dict[str, FrozenSet[int]]] = [dict() for _ in blocks]
        if blocks:
            in_state[0] = entry_in

        changed = True
        while changed:
            changed = False
            for block in blocks:
                preds = [out_state[p] for p in block.predecessors]
                if block.index == 0:
                    # a loop back to the entry block also merges its preds
                    preds.insert(0, entry_in)
                merged = dict(preds[0]) if preds else {}
                for pred in preds[1:]:
                    for key, defs in pred.items():
                        old = merged.get(key)
                        if old is None:
                            merged[key] = defs
                        elif old is not defs:
                            merged[key] = old | defs
                in_state[block.index] = merged
                new_out = self._transfer_block(merged, block)
                if new_out != out_state[block.index]:
                    out_state[block.index] = new_out
                    changed = True
        self._block_in = in_state

    # -- queries -----------------------------------------------------------------

    def reaching(self, inst_index, reg):
        """Definition sites of ``reg`` that may reach ``inst_index``.

        ``reg`` may be a :class:`Reg` or a register name string.  Returns a
        frozenset of instruction indices; may contain :data:`ENTRY`.
        """
        name = reg.name if isinstance(reg, Reg) else reg
        state = self._cache.get(inst_index)
        if state is None:
            self._cache_block(self.cfg.block_of(inst_index))
            state = self._cache[inst_index]
        return state.get(name, _ENTRY_SET)

    def _cache_block(self, block):
        """Record the state before each instruction of ``block`` in one
        forward pass.  Instructions share one state until one of them
        defines a register; a cached state is never mutated."""
        insts = self.kernel.instructions
        state = self._block_in[block.index]
        for i in range(block.start, block.end):
            self._cache[i] = state
            if insts[i].write_reg_names:
                state = dict(state)
                self._apply(state, insts[i], i)

    def definitions_of(self, reg_name):
        """All instruction indices that write ``reg_name``."""
        return [i for i, inst in enumerate(self.kernel.instructions)
                if reg_name in inst.write_reg_names]
