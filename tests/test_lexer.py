"""Unit tests for the jmini lexer."""

import pytest

from repro.compiler.compile import compile_source
from repro.lang.errors import CompileError, LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        tokens = tokenize("fooBar _x x9")
        assert [t.value for t in tokens[:-1]] == ["fooBar", "_x", "x9"]
        assert all(t.kind is TokenKind.IDENT for t in tokens[:-1])

    def test_keywords_are_distinguished(self):
        tokens = tokenize("class classy")
        assert tokens[0].kind is TokenKind.KEYWORD
        assert tokens[1].kind is TokenKind.IDENT

    def test_int_literal(self):
        tokens = tokenize("0 42 1234567")
        assert [t.value for t in tokens[:-1]] == ["0", "42", "1234567"]
        assert all(t.kind is TokenKind.INT_LITERAL for t in tokens[:-1])

    def test_non_decimal_digit_ends_an_int_literal_and_is_rejected(self):
        """``'²'.isdigit()`` holds but ``int()`` refuses it: the literal
        stops before it, and the compiler reports it with a location
        instead of crashing the parser."""
        with pytest.raises(LexError) as lexed:
            tokenize("x = 1²;")
        assert lexed.value.message == "unexpected character '²'"
        assert (lexed.value.location.line, lexed.value.location.column) == (1, 6)
        with pytest.raises(CompileError) as compiled:
            compile_source("class C { int x = 1²; }")
        assert compiled.value.location.column == 20
        assert values("٣٤ + 1") == ["٣٤", "+", "1"]

    def test_digit_prefixed_identifier_rejected(self):
        with pytest.raises(LexError):
            tokenize("9lives")

    def test_string_literal(self):
        tokens = tokenize('"hello world"')
        assert tokens[0].kind is TokenKind.STRING_LITERAL
        assert tokens[0].value == "hello world"

    def test_string_escapes(self):
        tokens = tokenize(r'"a\nb\tc\\d\"e"')
        assert tokens[0].value == 'a\nb\tc\\d"e'

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize('"abc\ndef"')

    def test_unknown_escape(self):
        with pytest.raises(LexError):
            tokenize(r'"\q"')

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a # b")


class TestPunctuation:
    def test_multi_char_operators_are_greedy(self):
        assert values("== != <= >= && || =") == ["==", "!=", "<=", ">=", "&&", "||", "="]

    def test_single_char_operators(self):
        assert values("+-*/%!<>.,;") == list("+-*/%!<>.,;")

    def test_brackets(self):
        assert values("(){}[]") == ["(", ")", "{", "}", "[", "]"]


class TestComments:
    def test_line_comment(self):
        assert values("a // comment\nb") == ["a", "b"]

    def test_line_comment_at_eof(self):
        assert values("a // trailing") == ["a"]

    def test_block_comment(self):
        assert values("a /* ignore\nme */ b") == ["a", "b"]

    def test_nested_stars_in_block_comment(self):
        assert values("a /* ** * */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never ends")


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("ab\n  cd")
        assert tokens[0].location.line == 1
        assert tokens[0].location.column == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_filename_recorded(self):
        tokens = tokenize("x", filename="Foo.jm")
        assert tokens[0].location.filename == "Foo.jm"
