"""Basic blocks, functions, and modules."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.ir.instructions import (
    Branch,
    CondBranch,
    Instruction,
    Phi,
    Return,
)
from repro.ir.types import FunctionType
from repro.ir.values import Argument, Value


class BasicBlock(Value):
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str, parent: Optional["Function"] = None) -> None:
        super().__init__(ty=None, name=name)  # type: ignore[arg-type]
        self.parent = parent
        self.instructions: List[Instruction] = []

    # -- contents ----------------------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        if self.is_terminated() and not isinstance(inst, Phi):
            raise ValueError(
                f"cannot append to already-terminated block {self.name!r}")
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def phis(self) -> List[Phi]:
        return [i for i in self.instructions if isinstance(i, Phi)]

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator():
            return self.instructions[-1]
        return None

    def is_terminated(self) -> bool:
        return self.terminator is not None

    # -- CFG edges ------------------------------------------------------------

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        if term is None:
            return []
        if isinstance(term, Branch):
            return [term.target]
        if isinstance(term, CondBranch):
            if term.if_true is term.if_false:
                return [term.if_true]
            return [term.if_true, term.if_false]
        return []

    def predecessors(self) -> List["BasicBlock"]:
        if self.parent is None:
            return []
        return [b for b in self.parent.blocks if self in b.successors()]

    def short_name(self) -> str:
        return f"%{self.name}"

    def __repr__(self) -> str:
        return f"<BasicBlock %{self.name} ({len(self.instructions)} insts)>"

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)


class Function(Value):
    """A function: arguments plus a list of basic blocks (entry first)."""

    def __init__(self, name: str, ftype: FunctionType,
                 param_names: Sequence[str] = ()) -> None:
        super().__init__(ftype, name)
        self.ftype = ftype
        self.blocks: List[BasicBlock] = []
        self.arguments: List[Argument] = []
        for index, ptype in enumerate(ftype.param_types):
            pname = param_names[index] if index < len(param_names) else f"arg{index}"
            self.arguments.append(Argument(ptype, pname, index))
        self._name_counter = 0
        # Declared-only functions (no body) are "external".
        self.is_declaration = False

    # -- blocks ------------------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name!r} has no blocks")
        return self.blocks[0]

    def add_block(self, name: str = "") -> BasicBlock:
        if not name:
            name = self.next_name("bb")
        block = BasicBlock(name, parent=self)
        self.blocks.append(block)
        return block

    def block_by_name(self, name: str) -> Optional[BasicBlock]:
        for block in self.blocks:
            if block.name == name:
                return block
        return None

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)

    # -- helpers -----------------------------------------------------------------

    def next_name(self, prefix: str = "t") -> str:
        self._name_counter += 1
        return f"{prefix}{self._name_counter}"

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def argument(self, name: str) -> Argument:
        for arg in self.arguments:
            if arg.name == name:
                return arg
        raise KeyError(f"function {self.name!r} has no argument {name!r}")

    def returns(self) -> List[Return]:
        return [i for i in self.instructions() if isinstance(i, Return)]

    def __repr__(self) -> str:
        return f"<Function @{self.name} ({len(self.blocks)} blocks)>"


class Module:
    """A translation unit: a named collection of functions."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        return function

    def get_function(self, name: str) -> Optional[Function]:
        return self.functions.get(name)

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __repr__(self) -> str:
        return f"<Module {self.name!r} ({len(self.functions)} functions)>"
