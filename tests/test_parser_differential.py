"""Differential test: the precedence-table expression parser against the
one-method-per-level parser it replaced.

``_ReferenceParser`` overrides only the expression entry point with the
earlier six methods (``||``, ``&&``, equality, relational with
``instanceof``, additive, multiplicative). For every drawn expression
both parsers must build the same AST, or raise a :class:`ParseError`
with the same message at the same location. Drawn inputs mix every
binary operator, ``instanceof``, unary operators, casts and parentheses,
including operator sequences no well-formed program contains.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.lang import ast_nodes as ast
from repro.lang.errors import ParseError, SourceLocation
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.lang.types import Type


class _ReferenceParser(Parser):
    """Expressions by descending precedence, one method per level."""

    def _parse_expression(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._check_punct("||"):
            location = self._advance().location
            right = self._parse_and()
            left = ast.Binary(location, "||", left, right)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_equality()
        while self._check_punct("&&"):
            location = self._advance().location
            right = self._parse_equality()
            left = ast.Binary(location, "&&", left, right)
        return left

    def _parse_equality(self) -> ast.Expr:
        left = self._parse_relational()
        while self._check_punct("==") or self._check_punct("!="):
            op = self._advance()
            right = self._parse_relational()
            left = ast.Binary(op.location, op.value, left, right)
        return left

    def _parse_relational(self) -> ast.Expr:
        left = self._parse_additive()
        while True:
            if self._check_keyword("instanceof"):
                location = self._advance().location
                tested = self._parse_type()
                left = ast.InstanceOf(location, left, tested)
                continue
            matched = None
            for op in ("<=", ">=", "<", ">"):
                if self._check_punct(op):
                    matched = self._advance()
                    break
            if matched is None:
                return left
            right = self._parse_additive()
            left = ast.Binary(matched.location, matched.value, left, right)

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._check_punct("+") or self._check_punct("-"):
            op = self._advance()
            right = self._parse_multiplicative()
            left = ast.Binary(op.location, op.value, left, right)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._check_punct("*") or self._check_punct("/") or self._check_punct("%"):
            op = self._advance()
            right = self._parse_unary()
            left = ast.Binary(op.location, op.value, left, right)
        return left


def _dump(node):
    if isinstance(node, list):
        return [_dump(item) for item in node]
    if isinstance(node, (SourceLocation, Type)) or node is None:
        return repr(node)
    if isinstance(node, (str, int, bool)):
        return node
    return [type(node).__name__,
            {key: _dump(value) for key, value in sorted(vars(node).items())}]


def _outcome(parser_class, source: str):
    try:
        program = parser_class(tokenize(source, "<t>")).parse_program()
    except ParseError as error:
        return ("error", error.message, error.location)
    return _dump(program)


_OPERANDS = ["a", "1", "s.f", "g(a, 2)", "this", "null", "true", "xs[0]",
             '"t"']
_PIECES = _OPERANDS + [
    "||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%",
    "!", "instanceof T", "instanceof int[]", "(", ")", "(T)", "(int[])",
]


@st.composite
def _expressions(draw):
    """Mostly well-formed operator chains, with stray pieces mixed in."""
    parts = [draw(st.sampled_from(_OPERANDS))]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)) == 0:
            parts.append(draw(st.sampled_from(_PIECES)))
        else:
            parts.append(draw(st.sampled_from(_PIECES[len(_OPERANDS):])))
            parts.append(draw(st.sampled_from(_OPERANDS)))
    return " ".join(parts)


class TestExpressionParserMatchesReference:
    @given(_expressions())
    @settings(max_examples=500, deadline=None)
    @example("a instanceof T + 1")
    @example("a == b instanceof T + 1")
    @example("a < b instanceof T == c")
    @example("a - b - c * d / e % f || g && h != i")
    @example("!a instanceof T && -b < c")
    def test_same_ast_or_same_error(self, expression):
        source = "class C { void m() { x = %s; } }" % expression
        assert _outcome(Parser, source) == _outcome(_ReferenceParser, source)
