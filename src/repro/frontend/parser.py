"""Recursive-descent parser for MiniC.

The grammar covers the subset of C the paper's examples and synthetic corpora
need: struct declarations, typedefs, global variables, function definitions,
the usual statements, and the full C expression grammar with standard
precedence (assignment, conditional, logical, bitwise, equality, relational,
shift, additive, multiplicative, unary, postfix, primary).
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
    GlobalVarDecl,
    GotoStmt,
    Identifier,
    IfStmt,
    IndexExpr,
    IntLiteral,
    LabelStmt,
    MemberExpr,
    ParamDecl,
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
    BOOL,
    BUILTIN_TYPEDEFS,
    CArray,
    CHAR,
    CPointer,
    CStruct,
    CType,
    INT,
    LONG,
    SHORT,
    UCHAR,
    UINT,
    ULONG,
    USHORT,
    VOID,
    layout_struct,
)
from repro.frontend.errors import ParseError
from repro.frontend.lexer import Token, TokenKind
from repro.frontend.preprocessor import Preprocessor

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^="}


class Parser:
    """Parses a token stream into a :class:`TranslationUnit`."""

    def __init__(self, tokens: List[Token], filename: str = "<input>") -> None:
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.typedefs: Dict[str, CType] = dict(BUILTIN_TYPEDEFS)
        self.structs: Dict[str, CStruct] = {}

    # -- token helpers ----------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _check_punct(self, text: str) -> bool:
        return self._peek().is_punct(text)

    def _accept_punct(self, text: str) -> bool:
        if self._check_punct(text):
            self._advance()
            return True
        return False

    def _expect_punct(self, text: str) -> Token:
        token = self._peek()
        if not token.is_punct(text):
            raise ParseError(f"expected {text!r}, found {token.text!r}", token.location)
        return self._advance()

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {token.text!r}", token.location)
        return self._advance()

    def _at_eof(self) -> bool:
        return self._peek().kind is TokenKind.EOF

    # -- type parsing -------------------------------------------------------------

    def _starts_type(self, offset: int = 0) -> bool:
        token = self._peek(offset)
        if token.is_keyword("void", "char", "short", "int", "long", "signed",
                            "unsigned", "struct", "union", "const", "volatile",
                            "static", "extern", "inline", "_Bool"):
            return True
        return token.kind is TokenKind.IDENT and token.text in self.typedefs

    def _parse_type_specifier(self) -> CType:
        """Parse a declaration specifier (without pointer declarators)."""
        while self._peek().is_keyword("const", "volatile", "static", "extern", "inline"):
            self._advance()

        token = self._peek()
        if token.is_keyword("struct", "union"):
            return self._parse_struct_specifier()
        if token.kind is TokenKind.IDENT and token.text in self.typedefs:
            self._advance()
            return self.typedefs[token.text]

        signed: Optional[bool] = None
        base: Optional[str] = None
        long_count = 0
        seen_any = False
        while True:
            token = self._peek()
            if token.is_keyword("signed"):
                signed, seen_any = True, True
            elif token.is_keyword("unsigned"):
                signed, seen_any = False, True
            elif token.is_keyword("void", "char", "short", "int", "_Bool"):
                base, seen_any = token.text, True
            elif token.is_keyword("long"):
                long_count += 1
                seen_any = True
            elif token.is_keyword("const", "volatile"):
                pass
            else:
                break
            self._advance()
        if not seen_any:
            raise ParseError(f"expected a type, found {token.text!r}", token.location)

        if base == "void":
            return VOID
        if base == "_Bool":
            return BOOL
        if base == "char":
            return CHAR if signed in (None, True) else UCHAR
        if base == "short":
            return SHORT if signed in (None, True) else USHORT
        if long_count >= 1:
            return LONG if signed in (None, True) else ULONG
        return INT if signed in (None, True) else UINT

    def _parse_struct_specifier(self) -> CType:
        self._advance()  # struct / union
        name_token = self._peek()
        name = ""
        if name_token.kind is TokenKind.IDENT:
            name = self._advance().text
        if self._accept_punct("{"):
            members: List[Tuple[str, CType]] = []
            while not self._accept_punct("}"):
                member_type = self._parse_type_specifier()
                while True:
                    declarator_type, member_name = self._parse_declarator(member_type)
                    members.append((member_name, declarator_type))
                    if not self._accept_punct(","):
                        break
                self._expect_punct(";")
            struct = layout_struct(name or f"anon{len(self.structs)}", members)
            if name:
                self.structs[name] = struct
            return struct
        if name in self.structs:
            return self.structs[name]
        # Forward reference to an unknown struct: create an incomplete type.
        struct = CStruct(name, (), complete=False)
        if name:
            self.structs.setdefault(name, struct)
        return struct

    def _parse_declarator(self, base: CType) -> Tuple[CType, str]:
        """Parse pointer stars, a name, and trailing array brackets."""
        ty = base
        while self._accept_punct("*"):
            while self._peek().is_keyword("const", "volatile"):
                self._advance()
            ty = CPointer(ty)
        name = ""
        if self._peek().kind is TokenKind.IDENT:
            name = self._advance().text
        while self._accept_punct("["):
            if self._check_punct("]"):
                count = -1
            else:
                size_expr = self.parse_expression()
                count = size_expr.value if isinstance(size_expr, IntLiteral) else -1
            self._expect_punct("]")
            ty = CArray(ty, count)
        return ty, name

    # -- top level -----------------------------------------------------------------

    def parse_translation_unit(self) -> TranslationUnit:
        unit = TranslationUnit(filename=self.filename)
        while not self._at_eof():
            if self._accept_punct(";"):
                continue
            unit.declarations.append(self._parse_external_declaration())
        return unit

    def _parse_external_declaration(self):
        token = self._peek()
        if token.is_keyword("typedef"):
            return self._parse_typedef()
        if token.is_keyword("struct", "union") and self._peek(1).kind is TokenKind.IDENT \
                and self._peek(2).is_punct("{"):
            struct_type = self._parse_struct_specifier()
            self._expect_punct(";")
            members = [(f.name, f.type) for f in struct_type.fields] \
                if isinstance(struct_type, CStruct) else []
            return StructDecl(name=getattr(struct_type, "name", ""), members=members,
                              location=token.location)

        is_static = False
        is_inline = False
        while self._peek().is_keyword("static", "extern", "inline"):
            kw = self._advance()
            is_static = is_static or kw.text == "static"
            is_inline = is_inline or kw.text == "inline"

        base_type = self._parse_type_specifier()
        decl_type, name = self._parse_declarator(base_type)

        if self._check_punct("("):
            return self._parse_function(decl_type, name, token, is_static, is_inline)

        initializer = None
        if self._accept_punct("="):
            initializer = self.parse_assignment()
        self._expect_punct(";")
        return GlobalVarDecl(name=name, decl_type=decl_type, initializer=initializer,
                             location=token.location)

    def _parse_typedef(self):
        token = self._advance()  # typedef
        base_type = self._parse_type_specifier()
        decl_type, name = self._parse_declarator(base_type)
        self._expect_punct(";")
        self.typedefs[name] = decl_type
        return TypedefDecl(name=name, aliased=decl_type, location=token.location)

    def _parse_function(self, return_type: CType, name: str, token: Token,
                        is_static: bool, is_inline: bool) -> FunctionDecl:
        self._expect_punct("(")
        params: List[ParamDecl] = []
        if not self._check_punct(")"):
            while True:
                if self._peek().is_keyword("void") and self._peek(1).is_punct(")"):
                    self._advance()
                    break
                if self._peek().is_punct("..."):
                    self._advance()
                    break
                param_base = self._parse_type_specifier()
                param_type, param_name = self._parse_declarator(param_base)
                if isinstance(param_type, CArray):
                    param_type = CPointer(param_type.element)
                params.append(ParamDecl(name=param_name or f"arg{len(params)}",
                                        decl_type=param_type,
                                        location=self._peek().location))
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")

        body = None
        if self._check_punct("{"):
            body = self.parse_compound_statement()
        else:
            self._expect_punct(";")
        return FunctionDecl(name=name, return_type=return_type, params=params,
                            body=body, is_static=is_static, is_inline=is_inline,
                            location=token.location)

    # -- statements --------------------------------------------------------------------

    def parse_compound_statement(self) -> CompoundStmt:
        open_token = self._expect_punct("{")
        stmt = CompoundStmt(location=open_token.location)
        while not self._accept_punct("}"):
            if self._at_eof():
                raise ParseError("unterminated compound statement", open_token.location)
            stmt.statements.append(self.parse_statement())
        return stmt

    def parse_statement(self) -> Stmt:
        token = self._peek()
        if token.is_punct("{"):
            return self.parse_compound_statement()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("do"):
            return self._parse_do_while()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("return"):
            self._advance()
            value = None
            if not self._check_punct(";"):
                value = self.parse_expression()
            self._expect_punct(";")
            return ReturnStmt(value=value, location=token.location, origin=token.origin)
        if token.is_keyword("break"):
            self._advance()
            self._expect_punct(";")
            return BreakStmt(location=token.location)
        if token.is_keyword("continue"):
            self._advance()
            self._expect_punct(";")
            return ContinueStmt(location=token.location)
        if token.is_keyword("goto"):
            self._advance()
            label = self._expect_ident().text
            self._expect_punct(";")
            return GotoStmt(label=label, location=token.location)
        if token.kind is TokenKind.IDENT and self._peek(1).is_punct(":") \
                and not self._peek(2).is_punct(":"):
            self._advance()
            self._advance()
            inner = None
            if not self._check_punct("}"):
                inner = self.parse_statement()
            return LabelStmt(label=token.text, statement=inner, location=token.location)
        if self._starts_type() and not self._peek(1).is_punct("("):
            return self._parse_declaration_statement()
        if self._accept_punct(";"):
            return ExprStmt(expr=None, location=token.location)
        expr = self.parse_expression()
        self._expect_punct(";")
        return ExprStmt(expr=expr, location=token.location, origin=token.origin)

    def _parse_declaration_statement(self) -> Stmt:
        token = self._peek()
        base_type = self._parse_type_specifier()
        declarations: List[DeclStmt] = []
        while True:
            decl_type, name = self._parse_declarator(base_type)
            initializer = None
            if self._accept_punct("="):
                initializer = self.parse_assignment()
            declarations.append(DeclStmt(name=name, decl_type=decl_type,
                                         initializer=initializer,
                                         location=token.location,
                                         origin=token.origin))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        if len(declarations) == 1:
            return declarations[0]
        return CompoundStmt(statements=list(declarations), location=token.location)

    def _parse_if(self) -> IfStmt:
        token = self._advance()
        self._expect_punct("(")
        condition = self.parse_expression()
        self._expect_punct(")")
        then_branch = self.parse_statement()
        else_branch = None
        if self._peek().is_keyword("else"):
            self._advance()
            else_branch = self.parse_statement()
        return IfStmt(condition=condition, then_branch=then_branch,
                      else_branch=else_branch, location=token.location,
                      origin=token.origin)

    def _parse_while(self) -> WhileStmt:
        token = self._advance()
        self._expect_punct("(")
        condition = self.parse_expression()
        self._expect_punct(")")
        body = self.parse_statement()
        return WhileStmt(condition=condition, body=body, location=token.location)

    def _parse_do_while(self) -> DoWhileStmt:
        token = self._advance()
        body = self.parse_statement()
        if not self._peek().is_keyword("while"):
            raise ParseError("expected 'while' after do-body", self._peek().location)
        self._advance()
        self._expect_punct("(")
        condition = self.parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return DoWhileStmt(condition=condition, body=body, location=token.location)

    def _parse_for(self) -> ForStmt:
        token = self._advance()
        self._expect_punct("(")
        init: Optional[Stmt] = None
        if not self._check_punct(";"):
            if self._starts_type():
                init = self._parse_declaration_statement()
            else:
                expr = self.parse_expression()
                self._expect_punct(";")
                init = ExprStmt(expr=expr, location=token.location)
        else:
            self._advance()
        condition = None
        if not self._check_punct(";"):
            condition = self.parse_expression()
        self._expect_punct(";")
        step = None
        if not self._check_punct(")"):
            step = self.parse_expression()
        self._expect_punct(")")
        body = self.parse_statement()
        return ForStmt(init=init, condition=condition, step=step, body=body,
                       location=token.location)

    # -- expressions --------------------------------------------------------------------

    def parse_expression(self) -> Expr:
        expr = self.parse_assignment()
        while self._check_punct(","):
            self._advance()
            rhs = self.parse_assignment()
            expr = BinaryExpr(op=",", lhs=expr, rhs=rhs, location=expr.location)
        return expr

    def parse_assignment(self) -> Expr:
        lhs = self._parse_conditional()
        token = self._peek()
        if token.kind is TokenKind.PUNCT and token.text in ASSIGN_OPS:
            self._advance()
            rhs = self.parse_assignment()
            op = "" if token.text == "=" else token.text[:-1]
            return AssignExpr(op=op, target=lhs, value=rhs,
                              location=token.location, origin=token.origin)
        return lhs

    def _parse_conditional(self) -> Expr:
        condition = self._parse_binary(0)
        if self._accept_punct("?"):
            on_true = self.parse_expression()
            self._expect_punct(":")
            on_false = self._parse_conditional()
            return ConditionalExpr(condition=condition, on_true=on_true,
                                   on_false=on_false, location=condition.location)
        return condition

    _BINARY_LEVELS = [
        ["||"],
        ["&&"],
        ["|"],
        ["^"],
        ["&"],
        ["==", "!="],
        ["<", ">", "<=", ">="],
        ["<<", ">>"],
        ["+", "-"],
        ["*", "/", "%"],
    ]

    def _parse_binary(self, level: int) -> Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_unary()
        lhs = self._parse_binary(level + 1)
        ops = self._BINARY_LEVELS[level]
        while self._peek().kind is TokenKind.PUNCT and self._peek().text in ops:
            token = self._advance()
            rhs = self._parse_binary(level + 1)
            lhs = BinaryExpr(op=token.text, lhs=lhs, rhs=rhs,
                             location=token.location, origin=token.origin)
        return lhs

    def _parse_unary(self) -> Expr:
        token = self._peek()
        if token.kind is TokenKind.PUNCT and token.text in ("-", "~", "!", "*", "&", "+"):
            self._advance()
            operand = self._parse_unary()
            if token.text == "+":
                return operand
            return UnaryExpr(op=token.text, operand=operand,
                             location=token.location, origin=token.origin)
        if token.is_punct("++") or token.is_punct("--"):
            self._advance()
            operand = self._parse_unary()
            return UnaryExpr(op=token.text, operand=operand, postfix=False,
                             location=token.location, origin=token.origin)
        if token.is_keyword("sizeof"):
            self._advance()
            if self._check_punct("(") and self._starts_type(1):
                self._expect_punct("(")
                queried = self._parse_type_specifier()
                queried, _ = self._parse_declarator(queried)
                self._expect_punct(")")
                return SizeofExpr(queried_type=queried, location=token.location)
            operand = self._parse_unary()
            return SizeofExpr(operand=operand, location=token.location)
        # Cast expression: '(' type ')' unary
        if token.is_punct("(") and self._starts_type(1):
            self._advance()
            target = self._parse_type_specifier()
            target, _ = self._parse_declarator(target)
            self._expect_punct(")")
            operand = self._parse_unary()
            return CastExpr(target_type=target, operand=operand,
                            location=token.location, origin=token.origin)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            token = self._peek()
            if token.is_punct("["):
                self._advance()
                index = self.parse_expression()
                self._expect_punct("]")
                expr = IndexExpr(base=expr, index=index,
                                 location=token.location, origin=token.origin)
            elif token.is_punct("."):
                self._advance()
                member = self._expect_ident().text
                expr = MemberExpr(base=expr, member=member, arrow=False,
                                  location=token.location, origin=token.origin)
            elif token.is_punct("->"):
                self._advance()
                member = self._expect_ident().text
                expr = MemberExpr(base=expr, member=member, arrow=True,
                                  location=token.location, origin=token.origin)
            elif token.is_punct("("):
                if not isinstance(expr, Identifier):
                    raise ParseError("only direct calls by name are supported",
                                     token.location)
                self._advance()
                args: List[Expr] = []
                if not self._check_punct(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                expr = CallExpr(callee=expr.name, args=args,
                                location=token.location, origin=token.origin)
            elif token.is_punct("++") or token.is_punct("--"):
                self._advance()
                expr = UnaryExpr(op=token.text, operand=expr, postfix=True,
                                 location=token.location, origin=token.origin)
            else:
                return expr

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.kind is TokenKind.INT_LITERAL:
            self._advance()
            return IntLiteral(value=token.value, suffix=token.suffix,
                              location=token.location, origin=token.origin)
        if token.kind is TokenKind.CHAR_LITERAL:
            self._advance()
            return CharLiteral(value=token.value, location=token.location,
                               origin=token.origin)
        if token.kind is TokenKind.STRING_LITERAL:
            self._advance()
            return StringLiteral(value=token.text, location=token.location,
                                 origin=token.origin)
        if token.kind is TokenKind.IDENT:
            self._advance()
            return Identifier(name=token.text, location=token.location,
                              origin=token.origin)
        if token.is_punct("("):
            self._advance()
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {token.text!r} in expression",
                         token.location)


def parse(source: str, filename: str = "<input>",
          preprocessor: Optional[Preprocessor] = None) -> TranslationUnit:
    """Preprocess and parse ``source`` into a :class:`TranslationUnit`."""
    pp = preprocessor if preprocessor is not None else Preprocessor()
    tokens = pp.preprocess(source, filename)
    # The preprocessor strips directives but keeps the EOF token from lexing.
    if not tokens or tokens[-1].kind is not TokenKind.EOF:
        from repro.frontend.lexer import Token as _Token
        tokens.append(_Token(TokenKind.EOF, ""))
    return Parser(tokens, filename).parse_translation_unit()
