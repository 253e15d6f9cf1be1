"""Semantic analysis: symbol resolution, type checking, implicit conversions.

Sema walks the parsed AST, assigns a :class:`~repro.frontend.ctypes.CType` to
every expression, inserts explicit :class:`CastExpr` nodes for the implicit
conversions C performs (integer promotion and the usual arithmetic
conversions), and records the struct field offsets used by member accesses.
After sema the AST is fully typed, so lowering is a mechanical translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

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
    GlobalVarDecl,
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
    StructDecl,
    TranslationUnit,
    TypedefDecl,
    UnaryExpr,
    WhileStmt,
)
from repro.frontend.ctypes import (
    CArray,
    CFunction,
    CHAR,
    CInt,
    CPointer,
    CStruct,
    CType,
    INT,
    LONG,
    UINT,
    ULONG,
    VOID,
)
from repro.frontend.errors import SemaError

#: Return types the checker assumes for well-known library functions.
KNOWN_FUNCTIONS: Dict[str, CFunction] = {
    "abs": CFunction(INT, (INT,)),
    "labs": CFunction(LONG, (LONG,)),
    "malloc": CFunction(CPointer(VOID), (ULONG,)),
    "calloc": CFunction(CPointer(VOID), (ULONG, ULONG)),
    "realloc": CFunction(CPointer(VOID), (CPointer(VOID), ULONG)),
    "free": CFunction(VOID, (CPointer(VOID),)),
    "memcpy": CFunction(CPointer(VOID), (CPointer(VOID), CPointer(VOID), ULONG)),
    "memmove": CFunction(CPointer(VOID), (CPointer(VOID), CPointer(VOID), ULONG)),
    "memset": CFunction(CPointer(VOID), (CPointer(VOID), INT, ULONG)),
    "strchr": CFunction(CPointer(CHAR), (CPointer(CHAR), INT)),
    "strlen": CFunction(ULONG, (CPointer(CHAR),)),
    "strcmp": CFunction(INT, (CPointer(CHAR), CPointer(CHAR))),
    "strcpy": CFunction(CPointer(CHAR), (CPointer(CHAR), CPointer(CHAR))),
    "simple_strtoul": CFunction(ULONG, (CPointer(CHAR), CPointer(CPointer(CHAR)), INT)),
    "printf": CFunction(INT, (CPointer(CHAR),), variadic=True),
    "ereport": CFunction(VOID, (INT,), variadic=True),
}


@dataclass
class Symbol:
    """A named entity visible in some scope."""

    name: str
    ctype: CType
    kind: str = "variable"        # "variable", "parameter", "function", "global"


class Scope:
    """A lexical scope chaining to its parent."""

    def __init__(self, parent: Optional["Scope"] = None) -> None:
        self.parent = parent
        self.symbols: Dict[str, Symbol] = {}

    def define(self, symbol: Symbol) -> None:
        self.symbols[symbol.name] = symbol

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class SemanticAnalyzer:
    """Type checks a translation unit in place."""

    def __init__(self) -> None:
        self.globals = Scope()
        self.structs: Dict[str, CStruct] = {}
        self.current_function: Optional[FunctionDecl] = None
        self.errors: List[SemaError] = []
        for name, ftype in KNOWN_FUNCTIONS.items():
            self.globals.define(Symbol(name, ftype, kind="function"))

    # -- entry point ------------------------------------------------------------

    def analyze(self, unit: TranslationUnit) -> TranslationUnit:
        for decl in unit.declarations:
            if isinstance(decl, StructDecl):
                from repro.frontend.ctypes import layout_struct
                self.structs[decl.name] = layout_struct(decl.name, decl.members)
            elif isinstance(decl, TypedefDecl):
                pass
            elif isinstance(decl, GlobalVarDecl):
                self.globals.define(Symbol(decl.name, decl.decl_type, kind="global"))
                if decl.initializer is not None:
                    self._check_expr(decl.initializer, self.globals)
            elif isinstance(decl, FunctionDecl):
                ftype = CFunction(decl.return_type,
                                  tuple(p.decl_type for p in decl.params))
                self.globals.define(Symbol(decl.name, ftype, kind="function"))
        for decl in unit.declarations:
            if isinstance(decl, FunctionDecl) and decl.body is not None:
                self._check_function(decl)
        if self.errors:
            raise self.errors[0]
        return unit

    # -- functions ----------------------------------------------------------------

    def _check_function(self, decl: FunctionDecl) -> None:
        self.current_function = decl
        scope = Scope(self.globals)
        for param in decl.params:
            scope.define(Symbol(param.name, param.decl_type, kind="parameter"))
        self._check_stmt(decl.body, scope)
        self.current_function = None

    # -- statements ------------------------------------------------------------------

    def _check_stmt(self, stmt: Stmt, scope: Scope) -> None:
        if isinstance(stmt, CompoundStmt):
            inner = Scope(scope)
            for child in stmt.statements:
                self._check_stmt(child, inner)
        elif isinstance(stmt, DeclStmt):
            if stmt.initializer is not None:
                self._check_expr(stmt.initializer, scope)
                stmt.initializer = self._convert(stmt.initializer, stmt.decl_type)
            scope.define(Symbol(stmt.name, stmt.decl_type))
        elif isinstance(stmt, ExprStmt):
            if stmt.expr is not None:
                self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, IfStmt):
            self._check_condition(stmt.condition, scope)
            self._check_stmt(stmt.then_branch, scope)
            if stmt.else_branch is not None:
                self._check_stmt(stmt.else_branch, scope)
        elif isinstance(stmt, WhileStmt):
            self._check_condition(stmt.condition, scope)
            self._check_stmt(stmt.body, scope)
        elif isinstance(stmt, DoWhileStmt):
            self._check_stmt(stmt.body, scope)
            self._check_condition(stmt.condition, scope)
        elif isinstance(stmt, ForStmt):
            inner = Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.condition is not None:
                self._check_condition(stmt.condition, inner)
            if stmt.step is not None:
                self._check_expr(stmt.step, inner)
            self._check_stmt(stmt.body, inner)
        elif isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                self._check_expr(stmt.value, scope)
                if self.current_function is not None and \
                        not self.current_function.return_type.is_void():
                    stmt.value = self._convert(
                        stmt.value, self.current_function.return_type)
        elif isinstance(stmt, (BreakStmt, ContinueStmt, GotoStmt)):
            pass
        elif isinstance(stmt, LabelStmt):
            if stmt.statement is not None:
                self._check_stmt(stmt.statement, scope)
        else:
            self._error(f"unsupported statement {type(stmt).__name__}", stmt)

    def _check_condition(self, expr: Expr, scope: Scope) -> None:
        self._check_expr(expr, scope)

    # -- expressions --------------------------------------------------------------------

    def _check_expr(self, expr: Expr, scope: Scope) -> CType:
        ctype = self._infer(expr, scope)
        expr.ctype = ctype
        return ctype

    def _infer(self, expr: Expr, scope: Scope) -> CType:
        if isinstance(expr, IntLiteral):
            if "u" in expr.suffix and "l" in expr.suffix:
                return ULONG
            if "l" in expr.suffix or expr.value > 2 ** 31 - 1:
                return ULONG if "u" in expr.suffix else LONG
            if "u" in expr.suffix:
                return UINT
            return INT
        if isinstance(expr, CharLiteral):
            return INT
        if isinstance(expr, StringLiteral):
            return CPointer(CHAR)
        if isinstance(expr, Identifier):
            symbol = scope.lookup(expr.name)
            if symbol is None:
                self._error(f"use of undeclared identifier {expr.name!r}", expr)
                return INT
            return symbol.ctype
        if isinstance(expr, UnaryExpr):
            return self._infer_unary(expr, scope)
        if isinstance(expr, BinaryExpr):
            return self._infer_binary(expr, scope)
        if isinstance(expr, AssignExpr):
            target_type = self._check_expr(expr.target, scope)
            self._check_expr(expr.value, scope)
            if not isinstance(expr.target, (Identifier, UnaryExpr, IndexExpr, MemberExpr)):
                self._error("assignment target is not an lvalue", expr)
            if target_type.is_scalar():
                expr.value = self._convert(expr.value, target_type)
            return target_type
        if isinstance(expr, ConditionalExpr):
            self._check_expr(expr.condition, scope)
            true_type = self._check_expr(expr.on_true, scope)
            false_type = self._check_expr(expr.on_false, scope)
            if true_type.is_integer() and false_type.is_integer():
                common = self._usual_arithmetic(true_type, false_type)
                expr.on_true = self._convert(expr.on_true, common)
                expr.on_false = self._convert(expr.on_false, common)
                return common
            return true_type
        if isinstance(expr, CallExpr):
            return self._infer_call(expr, scope)
        if isinstance(expr, IndexExpr):
            base_type = self._check_expr(expr.base, scope)
            self._check_expr(expr.index, scope)
            if isinstance(base_type, CArray):
                return base_type.element
            if isinstance(base_type, CPointer):
                return base_type.target
            self._error("subscripted value is not an array or pointer", expr)
            return INT
        if isinstance(expr, MemberExpr):
            return self._infer_member(expr, scope)
        if isinstance(expr, CastExpr):
            self._check_expr(expr.operand, scope)
            return expr.target_type
        if isinstance(expr, SizeofExpr):
            if expr.operand is not None:
                self._check_expr(expr.operand, scope)
            return ULONG
        self._error(f"unsupported expression {type(expr).__name__}", expr)
        return INT

    def _infer_unary(self, expr: UnaryExpr, scope: Scope) -> CType:
        operand_type = self._check_expr(expr.operand, scope)
        if expr.op in ("-", "~"):
            promoted = self._promote(operand_type)
            expr.operand = self._convert(expr.operand, promoted)
            return promoted
        if expr.op == "!":
            return INT
        if expr.op == "*":
            if isinstance(operand_type, CPointer):
                return operand_type.target
            if isinstance(operand_type, CArray):
                return operand_type.element
            self._error("cannot dereference a non-pointer", expr)
            return INT
        if expr.op == "&":
            return CPointer(operand_type)
        if expr.op in ("++", "--"):
            return operand_type
        self._error(f"unsupported unary operator {expr.op!r}", expr)
        return operand_type

    def _infer_binary(self, expr: BinaryExpr, scope: Scope) -> CType:
        lhs_type = self._check_expr(expr.lhs, scope)
        rhs_type = self._check_expr(expr.rhs, scope)
        op = expr.op
        if op in ("&&", "||"):
            return INT
        if op == ",":
            return rhs_type
        lhs_is_ptr = lhs_type.is_pointer() or lhs_type.is_array()
        rhs_is_ptr = rhs_type.is_pointer() or rhs_type.is_array()
        if op in ("+", "-") and (lhs_is_ptr or rhs_is_ptr):
            if lhs_is_ptr and rhs_is_ptr:
                if op == "-":
                    return LONG  # pointer difference
                self._error("cannot add two pointers", expr)
                return lhs_type
            return lhs_type if lhs_is_ptr else rhs_type
        if op in ("==", "!=", "<", ">", "<=", ">=") and (lhs_is_ptr or rhs_is_ptr):
            return INT
        if op in ("<<", ">>"):
            promoted = self._promote(lhs_type if lhs_type.is_integer() else INT)
            expr.lhs = self._convert(expr.lhs, promoted)
            rhs_promoted = self._promote(rhs_type if rhs_type.is_integer() else INT)
            expr.rhs = self._convert(expr.rhs, rhs_promoted)
            return promoted
        if lhs_type.is_integer() and rhs_type.is_integer():
            common = self._usual_arithmetic(lhs_type, rhs_type)
            expr.lhs = self._convert(expr.lhs, common)
            expr.rhs = self._convert(expr.rhs, common)
            if op in ("==", "!=", "<", ">", "<=", ">="):
                return INT
            return common
        if op in ("==", "!=", "<", ">", "<=", ">="):
            return INT
        return lhs_type if lhs_type.is_scalar() else INT

    def _infer_call(self, expr: CallExpr, scope: Scope) -> CType:
        symbol = scope.lookup(expr.callee)
        for arg in expr.args:
            self._check_expr(arg, scope)
        if symbol is None or not isinstance(symbol.ctype, CFunction):
            # Unknown functions default to returning int (like implicit decls).
            return INT
        ftype = symbol.ctype
        for index, param_type in enumerate(ftype.params):
            if index < len(expr.args) and param_type.is_scalar():
                expr.args[index] = self._convert(expr.args[index], param_type)
        return ftype.return_type

    def _infer_member(self, expr: MemberExpr, scope: Scope) -> CType:
        base_type = self._check_expr(expr.base, scope)
        struct: Optional[CStruct] = None
        if expr.arrow:
            if isinstance(base_type, CPointer) and isinstance(base_type.target, CStruct):
                struct = base_type.target
            else:
                self._error("-> applied to a non-struct-pointer", expr)
        else:
            if isinstance(base_type, CStruct):
                struct = base_type
            else:
                self._error(". applied to a non-struct", expr)
        if struct is not None:
            resolved = self.structs.get(struct.name, struct)
            member = resolved.field(expr.member)
            if member is None:
                self._error(
                    f"struct {struct.name!r} has no member {expr.member!r}", expr)
            else:
                expr.field_offset = member.offset
                return member.type
        return INT

    # -- conversions --------------------------------------------------------------------

    @staticmethod
    def _promote(ctype: CType) -> CType:
        """C integer promotion: anything narrower than int becomes int."""
        if isinstance(ctype, CInt) and ctype.width < 32:
            return INT
        return ctype

    def _usual_arithmetic(self, lhs: CType, rhs: CType) -> CType:
        """The usual arithmetic conversions for two integer operands."""
        left = self._promote(lhs)
        right = self._promote(rhs)
        if not (isinstance(left, CInt) and isinstance(right, CInt)):
            return left
        if left.width == right.width:
            if left.signed == right.signed:
                return left
            return left if not left.signed else right
        wider, narrower = (left, right) if left.width > right.width else (right, left)
        if wider.signed and not narrower.signed and wider.width <= narrower.width:
            return CInt(wider.width, signed=False, name=wider.name)
        return wider

    def _convert(self, expr: Expr, target: CType) -> Expr:
        """Insert an implicit cast node if the expression's type differs."""
        if expr.ctype is None or not target.is_scalar():
            return expr
        if isinstance(expr.ctype, CInt) and isinstance(target, CInt):
            if expr.ctype.width == target.width and expr.ctype.signed == target.signed:
                return expr
        elif isinstance(expr.ctype, CPointer) and isinstance(target, CPointer):
            return expr
        elif isinstance(expr.ctype, CArray) and isinstance(target, CPointer):
            return expr
        cast = CastExpr(target_type=target, operand=expr, implicit=True,
                        location=expr.location, origin=expr.origin)
        cast.ctype = target
        return cast

    # -- diagnostics ----------------------------------------------------------------------

    def _error(self, message: str, node) -> None:
        self.errors.append(SemaError(message, node.location))


def analyze(unit: TranslationUnit) -> TranslationUnit:
    """Run semantic analysis on a parsed translation unit (mutates it)."""
    return SemanticAnalyzer().analyze(unit)
