"""AST → IR lowering.

The lowering is deliberately clang-at-``-O0``-like: every local scalar lives
in an alloca and every use goes through a load/store pair.  The subsequent
mem2reg pass (:mod:`repro.lower.mem2reg`) promotes them to SSA values.  The
translation preserves:

* evaluation order of side effects (assignments, ++/--, calls),
* short-circuiting of ``&&``, ``||`` and ``?:`` via control flow,
* source locations and macro origins on every emitted instruction, which is
  what lets the checker suppress warnings for compiler-generated code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.frontend.ast_nodes import (
    AssignExpr,
    BinaryExpr,
    BreakStmt,
    CallExpr,
    CastExpr,
    CharLiteral,
    CompoundStmt,
    ConditionalExpr,
    ContinueStmt,
    DeclStmt,
    DoWhileStmt,
    Expr,
    ExprStmt,
    ForStmt,
    FunctionDecl,
    GotoStmt,
    Identifier,
    IfStmt,
    IndexExpr,
    IntLiteral,
    LabelStmt,
    MemberExpr,
    ReturnStmt,
    SizeofExpr,
    Stmt,
    StringLiteral,
    TranslationUnit,
    UnaryExpr,
    WhileStmt,
)
from repro.frontend.ctypes import (
    CArray,
    CInt,
    CPointer,
    CStruct,
    CType,
    CVoid,
    INT,
)
from repro.frontend.errors import SemaError
from repro.ir.builder import IRBuilder
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import BinOpKind, CastKind, ICmpPred
from repro.ir.types import (
    ArrayType,
    FunctionType,
    IntType,
    IRType,
    PointerType,
    VoidType,
)
from repro.ir.values import Constant, Value
from repro.lower.mem2reg import promote_memory_to_registers


def ctype_to_irtype(ctype: CType) -> IRType:
    """Map a frontend C type onto the IR type system."""
    if isinstance(ctype, CVoid):
        return VoidType()
    if isinstance(ctype, CInt):
        return IntType(ctype.width, ctype.signed)
    if isinstance(ctype, CPointer):
        return PointerType(ctype_to_irtype(ctype.target))
    if isinstance(ctype, CArray):
        count = ctype.count if ctype.count > 0 else 1
        return ArrayType(ctype_to_irtype(ctype.element), count)
    if isinstance(ctype, CStruct):
        # Structs are only manipulated through pointers/member accesses; an
        # opaque fixed-width blob is enough for layout purposes.
        return ArrayType(IntType(8, signed=False), max(1, ctype.size_bytes))
    raise SemaError(f"cannot lower type {ctype!r}")


class _LoopContext:
    """Targets for break/continue inside the innermost loop."""

    def __init__(self, break_block: BasicBlock, continue_block: BasicBlock) -> None:
        self.break_block = break_block
        self.continue_block = continue_block


class Lowering:
    """Lowers a single translation unit to an IR module."""

    def __init__(self, unit: TranslationUnit, module_name: str = "") -> None:
        self.unit = unit
        self.module = Module(module_name or unit.filename)
        self._string_counter = 0

    # -- entry point -----------------------------------------------------------

    def lower(self, promote: bool = True) -> Module:
        """Lower every function; optionally run mem2reg on the results."""
        for decl in self.unit.declarations:
            if isinstance(decl, FunctionDecl) and decl.body is not None:
                function = self._lower_function(decl)
                self.module.add_function(function)
        if promote:
            for function in self.module.defined_functions():
                promote_memory_to_registers(function)
        return self.module

    # -- functions ---------------------------------------------------------------

    def _lower_function(self, decl: FunctionDecl) -> Function:
        param_types = tuple(ctype_to_irtype(p.decl_type) for p in decl.params)
        ftype = FunctionType(ctype_to_irtype(decl.return_type), param_types)
        function = Function(decl.name, ftype, [p.name for p in decl.params])
        builder = IRBuilder(function)
        state = _FunctionState(self, function, builder, decl)

        # Give every parameter an alloca so it behaves like a local variable.
        for param, arg in zip(decl.params, function.arguments):
            slot = builder.alloca(arg.type, name=f"{param.name}.addr")
            builder.store(arg, slot)
            state.variables[param.name] = (slot, param.decl_type)

        state.lower_statement(decl.body)

        # Fall off the end of the function: synthesise a return.
        if not builder.block.is_terminated():
            if ftype.return_type.is_void():
                builder.ret()
            else:
                builder.ret(Constant(ftype.return_type, 0))
        state.finalize()
        return function

    def next_string_address(self) -> int:
        """A distinct non-null address for each string literal."""
        self._string_counter += 1
        return 0x10000 + self._string_counter * 0x100


class _FunctionState:
    """Per-function lowering state: variable slots, loop stack, goto labels."""

    def __init__(self, lowering: Lowering, function: Function,
                 builder: IRBuilder, decl: FunctionDecl) -> None:
        self.lowering = lowering
        self.function = function
        self.builder = builder
        self.decl = decl
        self.variables: Dict[str, Tuple[Value, CType]] = {}
        self.loop_stack: List[_LoopContext] = []
        self.labels: Dict[str, BasicBlock] = {}

    # -- helpers ----------------------------------------------------------------

    def _set_meta(self, node) -> None:
        self.builder.location = node.location
        self.builder.origin = node.origin

    def _label_block(self, name: str) -> BasicBlock:
        if name not in self.labels:
            self.labels[name] = self.builder.new_block(f"label.{name}")
        return self.labels[name]

    def finalize(self) -> None:
        """Terminate any labelled blocks that were never filled."""
        for block in self.function.blocks:
            if not block.is_terminated():
                saved = self.builder.block
                self.builder.set_block(block)
                if self.function.ftype.return_type.is_void():
                    self.builder.ret()
                else:
                    self.builder.ret(Constant(self.function.ftype.return_type, 0))
                self.builder.set_block(saved)

    # -- statements ----------------------------------------------------------------

    def lower_statement(self, stmt: Stmt) -> None:
        if self.builder.block.is_terminated() and not isinstance(stmt, LabelStmt):
            # Unreachable statement (e.g. code after a return): lower it into
            # a fresh block so the checker still sees and analyzes it.
            dead = self.builder.new_block("dead")
            self.builder.set_block(dead)
        self._set_meta(stmt)

        if isinstance(stmt, CompoundStmt):
            for child in stmt.statements:
                self.lower_statement(child)
        elif isinstance(stmt, DeclStmt):
            self._lower_decl(stmt)
        elif isinstance(stmt, ExprStmt):
            if stmt.expr is not None:
                self.lower_expression(stmt.expr)
        elif isinstance(stmt, IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, WhileStmt):
            self._lower_while(stmt)
        elif isinstance(stmt, DoWhileStmt):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ForStmt):
            self._lower_for(stmt)
        elif isinstance(stmt, ReturnStmt):
            self._lower_return(stmt)
        elif isinstance(stmt, BreakStmt):
            if self.loop_stack:
                self.builder.br(self.loop_stack[-1].break_block)
        elif isinstance(stmt, ContinueStmt):
            if self.loop_stack:
                self.builder.br(self.loop_stack[-1].continue_block)
        elif isinstance(stmt, GotoStmt):
            self.builder.br(self._label_block(stmt.label))
        elif isinstance(stmt, LabelStmt):
            target = self._label_block(stmt.label)
            if not self.builder.block.is_terminated():
                self.builder.br(target)
            self.builder.set_block(target)
            if stmt.statement is not None:
                self.lower_statement(stmt.statement)
        else:
            raise SemaError(f"cannot lower statement {type(stmt).__name__}",
                            stmt.location)

    def _lower_decl(self, stmt: DeclStmt) -> None:
        ir_type = ctype_to_irtype(stmt.decl_type)
        slot = self.builder.alloca(ir_type, name=stmt.name)
        self.variables[stmt.name] = (slot, stmt.decl_type)
        if stmt.initializer is not None:
            value = self.lower_expression(stmt.initializer)
            if not ir_type.is_array():
                value = self._coerce(value, ir_type, stmt.initializer.ctype)
                self.builder.store(value, slot)

    def _lower_if(self, stmt: IfStmt) -> None:
        then_block = self.builder.new_block("if.then")
        else_block = self.builder.new_block("if.else") if stmt.else_branch else None
        end_block = self.builder.new_block("if.end")
        cond = self.lower_condition(stmt.condition)
        self.builder.cond_br(cond, then_block, else_block or end_block)

        self.builder.set_block(then_block)
        self.lower_statement(stmt.then_branch)
        if not self.builder.block.is_terminated():
            self.builder.br(end_block)

        if else_block is not None:
            self.builder.set_block(else_block)
            self.lower_statement(stmt.else_branch)
            if not self.builder.block.is_terminated():
                self.builder.br(end_block)

        self.builder.set_block(end_block)

    def _lower_while(self, stmt: WhileStmt) -> None:
        header = self.builder.new_block("while.cond")
        body = self.builder.new_block("while.body")
        end = self.builder.new_block("while.end")
        self.builder.br(header)
        self.builder.set_block(header)
        cond = self.lower_condition(stmt.condition)
        self.builder.cond_br(cond, body, end)
        self.builder.set_block(body)
        self.loop_stack.append(_LoopContext(end, header))
        self.lower_statement(stmt.body)
        self.loop_stack.pop()
        if not self.builder.block.is_terminated():
            self.builder.br(header)
        self.builder.set_block(end)

    def _lower_do_while(self, stmt: DoWhileStmt) -> None:
        body = self.builder.new_block("do.body")
        cond_block = self.builder.new_block("do.cond")
        end = self.builder.new_block("do.end")
        self.builder.br(body)
        self.builder.set_block(body)
        self.loop_stack.append(_LoopContext(end, cond_block))
        self.lower_statement(stmt.body)
        self.loop_stack.pop()
        if not self.builder.block.is_terminated():
            self.builder.br(cond_block)
        self.builder.set_block(cond_block)
        cond = self.lower_condition(stmt.condition)
        self.builder.cond_br(cond, body, end)
        self.builder.set_block(end)

    def _lower_for(self, stmt: ForStmt) -> None:
        if stmt.init is not None:
            self.lower_statement(stmt.init)
        header = self.builder.new_block("for.cond")
        body = self.builder.new_block("for.body")
        step_block = self.builder.new_block("for.step")
        end = self.builder.new_block("for.end")
        self.builder.br(header)
        self.builder.set_block(header)
        if stmt.condition is not None:
            cond = self.lower_condition(stmt.condition)
            self.builder.cond_br(cond, body, end)
        else:
            self.builder.br(body)
        self.builder.set_block(body)
        self.loop_stack.append(_LoopContext(end, step_block))
        self.lower_statement(stmt.body)
        self.loop_stack.pop()
        if not self.builder.block.is_terminated():
            self.builder.br(step_block)
        self.builder.set_block(step_block)
        if stmt.step is not None:
            self.lower_expression(stmt.step)
        self.builder.br(header)
        self.builder.set_block(end)

    def _lower_return(self, stmt: ReturnStmt) -> None:
        self._set_meta(stmt)
        return_type = self.function.ftype.return_type
        if stmt.value is None or return_type.is_void():
            if stmt.value is not None:
                self.lower_expression(stmt.value)
            self.builder.ret()
            return
        value = self.lower_expression(stmt.value)
        value = self._coerce(value, return_type, stmt.value.ctype)
        self._set_meta(stmt)
        self.builder.ret(value)

    # -- conditions -------------------------------------------------------------------

    def lower_condition(self, expr: Expr) -> Value:
        """Lower an expression used as a branch condition to an i1 value."""
        value = self.lower_expression(expr)
        return self._to_bool(value, expr)

    def _to_bool(self, value: Value, expr: Optional[Expr] = None) -> Value:
        if value.type.is_integer() and value.type.bit_width == 1:
            return value
        if expr is not None:
            self._set_meta(expr)
        zero = Constant(value.type, 0)
        return self.builder.icmp(ICmpPred.NE, value, zero)

    # -- lvalues -----------------------------------------------------------------------

    def lower_address(self, expr: Expr) -> Tuple[Value, IRType]:
        """Lower an lvalue expression to (address, pointee IR type)."""
        self._set_meta(expr)
        if isinstance(expr, Identifier):
            slot, ctype = self._variable(expr)
            pointee = ctype_to_irtype(ctype)
            return slot, pointee
        if isinstance(expr, UnaryExpr) and expr.op == "*":
            pointer = self.lower_expression(expr.operand)
            pointee = ctype_to_irtype(expr.ctype) if expr.ctype else IntType(32)
            return pointer, pointee
        if isinstance(expr, IndexExpr):
            return self._lower_index_address(expr)
        if isinstance(expr, MemberExpr):
            return self._lower_member_address(expr)
        raise SemaError(f"expression is not an lvalue: {type(expr).__name__}",
                        expr.location)

    def _variable(self, expr: Identifier) -> Tuple[Value, CType]:
        if expr.name in self.variables:
            return self.variables[expr.name]
        # Unknown identifiers (e.g. globals the corpus leaves undeclared) get
        # a function-local slot so analysis can continue.
        ctype = expr.ctype if expr.ctype is not None else INT
        ir_type = ctype_to_irtype(ctype)
        saved_block = self.builder.block
        self.builder.set_block(self.function.entry)
        slot = self.builder.alloca(ir_type, name=expr.name)
        self.builder.set_block(saved_block)
        self.variables[expr.name] = (slot, ctype)
        return slot, ctype

    def _lower_index_address(self, expr: IndexExpr) -> Tuple[Value, IRType]:
        base_ctype = expr.base.ctype
        index = self.lower_expression(expr.index)
        if isinstance(base_ctype, CArray):
            base_addr, _ = self.lower_address(expr.base)
            element = ctype_to_irtype(base_ctype.element)
            self._set_meta(expr)
            index64 = self._coerce_width(index, 64, signed=True)
            gep = self.builder.gep(base_addr, index64, element_type=element,
                                   array_size=base_ctype.count if base_ctype.count > 0 else None)
            address = self.builder.cast(CastKind.BITCAST, gep, PointerType(element))
            return address, element
        # Pointer subscription.
        base = self.lower_expression(expr.base)
        element_ctype = base_ctype.target if isinstance(base_ctype, CPointer) else INT
        element = ctype_to_irtype(element_ctype)
        self._set_meta(expr)
        index64 = self._coerce_width(index, 64, signed=True)
        gep = self.builder.gep(base, index64, element_type=element)
        address = self.builder.cast(CastKind.BITCAST, gep, PointerType(element))
        return address, element

    def _lower_member_address(self, expr: MemberExpr) -> Tuple[Value, IRType]:
        member_type = ctype_to_irtype(expr.ctype) if expr.ctype else IntType(32)
        if expr.arrow:
            base = self.lower_expression(expr.base)
        else:
            base, _ = self.lower_address(expr.base)
        self._set_meta(expr)
        offset = Constant(IntType(64), expr.field_offset)
        gep = self.builder.gep(base, offset, element_type=IntType(8, signed=False))
        address = self.builder.cast(CastKind.BITCAST, gep, PointerType(member_type))
        return address, member_type

    # -- expressions ----------------------------------------------------------------------

    def lower_expression(self, expr: Expr) -> Value:
        self._set_meta(expr)
        if isinstance(expr, IntLiteral):
            ir_type = ctype_to_irtype(expr.ctype if expr.ctype else INT)
            return Constant(ir_type, expr.value)
        if isinstance(expr, CharLiteral):
            return Constant(IntType(32), expr.value)
        if isinstance(expr, StringLiteral):
            return Constant(PointerType(IntType(8)), self.lowering.next_string_address())
        if isinstance(expr, SizeofExpr):
            size = 8
            if expr.queried_type is not None:
                size = expr.queried_type.size_bytes
            elif expr.operand is not None and expr.operand.ctype is not None:
                size = expr.operand.ctype.size_bytes
            return Constant(IntType(64, signed=False), size)
        if isinstance(expr, Identifier):
            return self._lower_identifier_value(expr)
        if isinstance(expr, UnaryExpr):
            return self._lower_unary(expr)
        if isinstance(expr, BinaryExpr):
            return self._lower_binary(expr)
        if isinstance(expr, AssignExpr):
            return self._lower_assign(expr)
        if isinstance(expr, ConditionalExpr):
            return self._lower_conditional(expr)
        if isinstance(expr, CallExpr):
            return self._lower_call(expr)
        if isinstance(expr, IndexExpr):
            address, pointee = self._lower_index_address(expr)
            self._set_meta(expr)
            return self.builder.load(address)
        if isinstance(expr, MemberExpr):
            address, pointee = self._lower_member_address(expr)
            self._set_meta(expr)
            return self.builder.load(address)
        if isinstance(expr, CastExpr):
            return self._lower_cast(expr)
        raise SemaError(f"cannot lower expression {type(expr).__name__}",
                        expr.location)

    def _lower_identifier_value(self, expr: Identifier) -> Value:
        slot, ctype = self._variable(expr)
        if isinstance(ctype, CArray):
            # Arrays decay to a pointer to their first element.
            element = ctype_to_irtype(ctype.element)
            self._set_meta(expr)
            zero = Constant(IntType(64), 0)
            gep = self.builder.gep(slot, zero, element_type=element,
                                   array_size=ctype.count if ctype.count > 0 else None)
            return self.builder.cast(CastKind.BITCAST, gep, PointerType(element))
        self._set_meta(expr)
        return self.builder.load(slot)

    def _lower_unary(self, expr: UnaryExpr) -> Value:
        if expr.op == "&":
            address, _ = self.lower_address(expr.operand)
            return address
        if expr.op == "*":
            address, pointee = self.lower_address(expr)
            self._set_meta(expr)
            return self.builder.load(address)
        if expr.op in ("++", "--"):
            return self._lower_incdec(expr)
        operand = self.lower_expression(expr.operand)
        self._set_meta(expr)
        if expr.op == "-":
            return self.builder.neg(operand)
        if expr.op == "~":
            return self.builder.xor(operand, Constant(operand.type, -1))
        if expr.op == "!":
            zero = Constant(operand.type, 0) if not operand.type.is_bool() \
                else Constant(operand.type, 0)
            result = self.builder.icmp(ICmpPred.EQ, operand, zero)
            return result
        raise SemaError(f"unsupported unary operator {expr.op!r}", expr.location)

    def _lower_incdec(self, expr: UnaryExpr) -> Value:
        address, pointee = self.lower_address(expr.operand)
        self._set_meta(expr)
        old = self.builder.load(address)
        operand_ctype = expr.operand.ctype
        if pointee.is_pointer():
            delta = Constant(IntType(64), 1 if expr.op == "++" else -1)
            element = pointee.pointee
            new = self.builder.gep(old, delta, element_type=element)
        else:
            one = Constant(old.type, 1)
            kind = BinOpKind.ADD if expr.op == "++" else BinOpKind.SUB
            new = self.builder.binop(kind, old, one)
        self.builder.store(new, address)
        return old if expr.postfix else new

    _CMP_PREDS = {"==": ICmpPred.EQ, "!=": ICmpPred.NE}
    _SIGNED_PREDS = {"<": ICmpPred.SLT, ">": ICmpPred.SGT,
                     "<=": ICmpPred.SLE, ">=": ICmpPred.SGE}
    _UNSIGNED_PREDS = {"<": ICmpPred.ULT, ">": ICmpPred.UGT,
                       "<=": ICmpPred.ULE, ">=": ICmpPred.UGE}
    _ARITH_KINDS = {"+": BinOpKind.ADD, "-": BinOpKind.SUB, "*": BinOpKind.MUL,
                    "&": BinOpKind.AND, "|": BinOpKind.OR, "^": BinOpKind.XOR}

    def _lower_binary(self, expr: BinaryExpr) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            return self._lower_logical(expr)
        if op == ",":
            self.lower_expression(expr.lhs)
            return self.lower_expression(expr.rhs)

        lhs_ctype = expr.lhs.ctype
        rhs_ctype = expr.rhs.ctype
        lhs_is_ptr = lhs_ctype is not None and (lhs_ctype.is_pointer() or lhs_ctype.is_array())
        rhs_is_ptr = rhs_ctype is not None and (rhs_ctype.is_pointer() or rhs_ctype.is_array())

        lhs = self.lower_expression(expr.lhs)
        rhs = self.lower_expression(expr.rhs)
        self._set_meta(expr)

        if op in ("+", "-") and (lhs_is_ptr or rhs_is_ptr) and not (lhs_is_ptr and rhs_is_ptr):
            return self._lower_pointer_arith(expr, lhs, rhs, lhs_is_ptr)
        if op == "-" and lhs_is_ptr and rhs_is_ptr:
            lhs_int = self.builder.cast(CastKind.PTRTOINT, lhs, IntType(64))
            rhs_int = self.builder.cast(CastKind.PTRTOINT, rhs, IntType(64))
            element_size = 1
            if isinstance(lhs_ctype, CPointer):
                element_size = max(1, lhs_ctype.target.size_bytes)
            diff = self.builder.sub(lhs_int, rhs_int)
            if element_size > 1:
                diff = self.builder.sdiv(diff, Constant(IntType(64), element_size))
            return diff

        if op in ("==", "!=", "<", ">", "<=", ">="):
            lhs, rhs = self._unify_for_compare(lhs, rhs, lhs_ctype, rhs_ctype)
            if op in self._CMP_PREDS:
                pred = self._CMP_PREDS[op]
            else:
                signed = self._compare_signed(lhs_ctype, rhs_ctype, lhs, rhs)
                pred = (self._SIGNED_PREDS if signed else self._UNSIGNED_PREDS)[op]
            return self.builder.icmp(pred, lhs, rhs)

        lhs, rhs = self._unify_widths(lhs, rhs, expr)
        signed = isinstance(expr.ctype, CInt) and expr.ctype.signed
        if op in self._ARITH_KINDS:
            return self.builder.binop(self._ARITH_KINDS[op], lhs, rhs)
        if op == "/":
            return self.builder.sdiv(lhs, rhs) if signed else self.builder.udiv(lhs, rhs)
        if op == "%":
            return self.builder.srem(lhs, rhs) if signed else self.builder.urem(lhs, rhs)
        if op == "<<":
            return self.builder.shl(lhs, rhs)
        if op == ">>":
            lhs_signed = isinstance(lhs_ctype, CInt) and lhs_ctype.signed
            return self.builder.ashr(lhs, rhs) if lhs_signed else self.builder.lshr(lhs, rhs)
        raise SemaError(f"unsupported binary operator {op!r}", expr.location)

    def _compare_signed(self, lhs_ctype, rhs_ctype, lhs: Value, rhs: Value) -> bool:
        if lhs.type.is_pointer() or rhs.type.is_pointer():
            return False
        for ctype in (lhs_ctype, rhs_ctype):
            if isinstance(ctype, CInt) and not ctype.signed and ctype.width >= 32:
                return False
        if isinstance(lhs_ctype, CInt):
            return lhs_ctype.signed
        return True

    def _lower_pointer_arith(self, expr: BinaryExpr, lhs: Value, rhs: Value,
                             lhs_is_ptr: bool) -> Value:
        pointer, index = (lhs, rhs) if lhs_is_ptr else (rhs, lhs)
        pointer_ctype = expr.lhs.ctype if lhs_is_ptr else expr.rhs.ctype
        element_ctype = None
        if isinstance(pointer_ctype, CPointer):
            element_ctype = pointer_ctype.target
        elif isinstance(pointer_ctype, CArray):
            element_ctype = pointer_ctype.element
        element = ctype_to_irtype(element_ctype) if element_ctype is not None \
            else IntType(8, signed=False)
        index_ctype = expr.rhs.ctype if lhs_is_ptr else expr.lhs.ctype
        signed_index = not (isinstance(index_ctype, CInt) and not index_ctype.signed)
        index64 = self._coerce_width(index, 64, signed=signed_index)
        if expr.op == "-":
            index64 = self.builder.neg(index64)
        return self.builder.gep(pointer, index64, element_type=element)

    def _lower_logical(self, expr: BinaryExpr) -> Value:
        """Short-circuit && / || via control flow, producing an i1 phi."""
        rhs_block = self.builder.new_block("land.rhs" if expr.op == "&&" else "lor.rhs")
        end_block = self.builder.new_block("logical.end")
        lhs = self.lower_condition(expr.lhs)
        lhs_block = self.builder.block
        if expr.op == "&&":
            self.builder.cond_br(lhs, rhs_block, end_block)
        else:
            self.builder.cond_br(lhs, end_block, rhs_block)
        self.builder.set_block(rhs_block)
        rhs = self.lower_condition(expr.rhs)
        rhs_exit = self.builder.block
        self.builder.br(end_block)
        self.builder.set_block(end_block)
        phi = self.builder.phi(IntType(1, signed=False))
        short_value = Constant(IntType(1, signed=False), 0 if expr.op == "&&" else 1)
        phi.add_incoming(short_value, lhs_block)
        phi.add_incoming(rhs, rhs_exit)
        return phi

    def _lower_assign(self, expr: AssignExpr) -> Value:
        address, pointee = self.lower_address(expr.target)
        value = self.lower_expression(expr.value)
        self._set_meta(expr)
        if expr.op:
            old = self.builder.load(address)
            value = self._apply_compound(expr, old, value)
        value = self._coerce(value, pointee, expr.value.ctype)
        self.builder.store(value, address)
        return value

    def _apply_compound(self, expr: AssignExpr, old: Value, rhs: Value) -> Value:
        op = expr.op
        target_ctype = expr.target.ctype
        if old.type.is_pointer():
            index64 = self._coerce_width(rhs, 64, signed=True)
            if op == "-":
                index64 = self.builder.neg(index64)
            element = old.type.pointee
            return self.builder.gep(old, index64, element_type=element)
        rhs = self._coerce_width(rhs, old.type.bit_width,
                                 signed=isinstance(target_ctype, CInt) and target_ctype.signed)
        signed = isinstance(target_ctype, CInt) and target_ctype.signed
        mapping = {"+": BinOpKind.ADD, "-": BinOpKind.SUB, "*": BinOpKind.MUL,
                   "&": BinOpKind.AND, "|": BinOpKind.OR, "^": BinOpKind.XOR,
                   "<<": BinOpKind.SHL}
        if op in mapping:
            return self.builder.binop(mapping[op], old, rhs)
        if op == "/":
            return self.builder.sdiv(old, rhs) if signed else self.builder.udiv(old, rhs)
        if op == "%":
            return self.builder.srem(old, rhs) if signed else self.builder.urem(old, rhs)
        if op == ">>":
            return self.builder.ashr(old, rhs) if signed else self.builder.lshr(old, rhs)
        raise SemaError(f"unsupported compound assignment {op!r}=", expr.location)

    def _lower_conditional(self, expr: ConditionalExpr) -> Value:
        then_block = self.builder.new_block("cond.true")
        else_block = self.builder.new_block("cond.false")
        end_block = self.builder.new_block("cond.end")
        cond = self.lower_condition(expr.condition)
        self.builder.cond_br(cond, then_block, else_block)

        self.builder.set_block(then_block)
        true_value = self.lower_expression(expr.on_true)
        true_exit = self.builder.block
        self.builder.br(end_block)

        self.builder.set_block(else_block)
        false_value = self.lower_expression(expr.on_false)
        false_exit = self.builder.block
        self.builder.br(end_block)

        self.builder.set_block(end_block)
        result_type = true_value.type if not true_value.type.is_void() else false_value.type
        if false_value.type.bit_width != result_type.bit_width:
            false_value = self._coerce_width(false_value, result_type.bit_width, signed=True)
        phi = self.builder.phi(result_type)
        phi.add_incoming(true_value, true_exit)
        phi.add_incoming(false_value, false_exit)
        return phi

    def _lower_call(self, expr: CallExpr) -> Value:
        args = [self.lower_expression(arg) for arg in expr.args]
        self._set_meta(expr)
        return_ctype = expr.ctype if expr.ctype is not None else INT
        return_type = ctype_to_irtype(return_ctype)
        return self.builder.call(expr.callee, args, return_type)

    def _lower_cast(self, expr: CastExpr) -> Value:
        value = self.lower_expression(expr.operand)
        self._set_meta(expr)
        target = ctype_to_irtype(expr.target_type)
        source_ctype = expr.operand.ctype
        return self._coerce(value, target, source_ctype)

    # -- coercions -----------------------------------------------------------------------

    def _coerce(self, value: Value, target: IRType, source_ctype: Optional[CType]) -> Value:
        """Convert ``value`` to the IR type ``target`` (width/pointer changes)."""
        if target.is_void() or value.type.is_void():
            return value
        if target.is_array():
            return value
        if value.type.is_pointer() and target.is_pointer():
            if value.type.pointee is not target.pointee and isinstance(value, Constant):
                return Constant(target, value.value)
            if value.type.pointee is not target.pointee:
                return self.builder.cast(CastKind.BITCAST, value, target)
            return value
        if value.type.is_pointer() and target.is_integer():
            return self.builder.cast(CastKind.PTRTOINT, value, target)
        if value.type.is_integer() and target.is_pointer():
            if isinstance(value, Constant):
                return Constant(target, value.value)
            return self.builder.cast(CastKind.INTTOPTR, value, target)
        if value.type.is_integer() and target.is_integer():
            signed = True
            if isinstance(source_ctype, CInt):
                signed = source_ctype.signed
            if value.type.bit_width == 1:
                signed = False
            return self._coerce_width(value, target.bit_width, signed, target)
        return value

    def _coerce_width(self, value: Value, width: int, signed: bool,
                      target: Optional[IRType] = None) -> Value:
        if not value.type.is_integer():
            if value.type.is_pointer():
                return self.builder.cast(CastKind.PTRTOINT, value, IntType(width, not signed))
            return value
        current = value.type.bit_width
        target_type = target if target is not None else IntType(width, signed)
        if current == width:
            if isinstance(value, Constant) and target is not None and value.type != target:
                return Constant(target, value.value)
            return value
        if isinstance(value, Constant):
            return Constant(target_type, value.value)
        if current > width:
            return self.builder.trunc(value, target_type)
        kind = CastKind.SEXT if signed else CastKind.ZEXT
        return self.builder.cast(kind, value, target_type)

    def _unify_widths(self, lhs: Value, rhs: Value, expr: BinaryExpr) -> Tuple[Value, Value]:
        if lhs.type.is_pointer() or rhs.type.is_pointer():
            return lhs, rhs
        width = max(lhs.type.bit_width, rhs.type.bit_width)
        signed = isinstance(expr.ctype, CInt) and expr.ctype.signed
        return (self._coerce_width(lhs, width, signed),
                self._coerce_width(rhs, width, signed))

    def _unify_for_compare(self, lhs: Value, rhs: Value,
                           lhs_ctype, rhs_ctype) -> Tuple[Value, Value]:
        if lhs.type.is_pointer() and rhs.type.is_pointer():
            return lhs, rhs
        if lhs.type.is_pointer() and rhs.type.is_integer():
            if isinstance(rhs, Constant):
                return lhs, Constant(lhs.type, rhs.value)
            return lhs, self.builder.cast(CastKind.INTTOPTR, rhs, lhs.type)
        if rhs.type.is_pointer() and lhs.type.is_integer():
            if isinstance(lhs, Constant):
                return Constant(rhs.type, lhs.value), rhs
            return self.builder.cast(CastKind.INTTOPTR, lhs, rhs.type), rhs
        width = max(lhs.type.bit_width, rhs.type.bit_width)
        lhs_signed = not (isinstance(lhs_ctype, CInt) and not lhs_ctype.signed)
        rhs_signed = not (isinstance(rhs_ctype, CInt) and not rhs_ctype.signed)
        return (self._coerce_width(lhs, width, lhs_signed),
                self._coerce_width(rhs, width, rhs_signed))


def lower_translation_unit(unit: TranslationUnit, module_name: str = "",
                           promote: bool = True) -> Module:
    """Lower a type-checked translation unit into an IR module."""
    return Lowering(unit, module_name).lower(promote=promote)
