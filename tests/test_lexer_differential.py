"""Differential test: the regex lexer against the character-at-a-time
lexer it replaced.

``_ReferenceLexer`` is the earlier hand-written lexer, kept as the
oracle verbatim but for one rule: an integer literal is a run of
``isdecimal()`` characters, not ``isdigit()`` ones, so that ``int()``
accepts every literal (``'1²'`` used to lex as one literal and then
crash the parser). For every drawn input both must produce the same tokens
(kind, value, line, column) or raise a :class:`LexError` with the same
message at the same location. The alphabet is chosen to reach every
branch of both: quotes and escapes, both comment forms, ``\\r`` and tabs
in column counting, every punctuation token, and non-ASCII letters and
digits whose ``str`` classification differs from the regex classes
(``'²'.isdigit()`` but not ``\\d``; ``'½'`` and ``'٣'``).
"""

from __future__ import annotations

from typing import List

from hypothesis import example, given, settings, strategies as st

from repro.lang.errors import LexError, SourceLocation
from repro.lang.lexer import tokenize
from repro.lang.tokens import KEYWORDS, PUNCTUATION, Token, TokenKind

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"', "0": "\0"}


class _ReferenceLexer:
    """The character-at-a-time lexer (oracle)."""

    def __init__(self, source: str, filename: str = "<source>"):
        self._source = source
        self._filename = filename
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokenize(self) -> List[Token]:
        tokens: List[Token] = []
        while True:
            self._skip_whitespace_and_comments()
            if self._at_end():
                tokens.append(Token(TokenKind.EOF, "", self._location()))
                return tokens
            tokens.append(self._next_token())

    def _location(self) -> SourceLocation:
        return SourceLocation(self._filename, self._line, self._column)

    def _at_end(self) -> bool:
        return self._pos >= len(self._source)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= len(self._source):
            return ""
        return self._source[index]

    def _advance(self) -> str:
        char = self._source[self._pos]
        self._pos += 1
        if char == "\n":
            self._line += 1
            self._column = 1
        else:
            self._column += 1
        return char

    def _skip_whitespace_and_comments(self) -> None:
        while not self._at_end():
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while not self._at_end() and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                self._skip_block_comment()
            else:
                return

    def _skip_block_comment(self) -> None:
        start = self._location()
        self._advance()
        self._advance()
        while True:
            if self._at_end():
                raise LexError("unterminated block comment", start)
            if self._peek() == "*" and self._peek(1) == "/":
                self._advance()
                self._advance()
                return
            self._advance()

    def _next_token(self) -> Token:
        location = self._location()
        char = self._peek()
        if char.isdecimal():
            return self._lex_number(location)
        if char.isalpha() or char == "_":
            return self._lex_word(location)
        if char == '"':
            return self._lex_string(location)
        for punct in PUNCTUATION:
            if self._source.startswith(punct, self._pos):
                for _ in punct:
                    self._advance()
                return Token(TokenKind.PUNCT, punct, location)
        raise LexError(f"unexpected character {char!r}", location)

    def _lex_number(self, location: SourceLocation) -> Token:
        digits = []
        while not self._at_end() and self._peek().isdecimal():
            digits.append(self._advance())
        if not self._at_end() and (self._peek().isalpha() or self._peek() == "_"):
            raise LexError("identifier may not start with a digit", location)
        return Token(TokenKind.INT_LITERAL, "".join(digits), location)

    def _lex_word(self, location: SourceLocation) -> Token:
        chars = []
        while not self._at_end() and (self._peek().isalnum() or self._peek() == "_"):
            chars.append(self._advance())
        word = "".join(chars)
        kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
        return Token(kind, word, location)

    def _lex_string(self, location: SourceLocation) -> Token:
        self._advance()
        chars = []
        while True:
            if self._at_end():
                raise LexError("unterminated string literal", location)
            char = self._advance()
            if char == '"':
                return Token(TokenKind.STRING_LITERAL, "".join(chars), location)
            if char == "\n":
                raise LexError("newline in string literal", location)
            if char == "\\":
                if self._at_end():
                    raise LexError("unterminated escape sequence", location)
                escape = self._advance()
                if escape not in _ESCAPES:
                    raise LexError(f"unknown escape sequence \\{escape}", location)
                chars.append(_ESCAPES[escape])
            else:
                chars.append(char)


def _outcome(lex, source: str):
    """Tokens as plain tuples, or the error's message and location."""
    try:
        tokens = lex(source)
    except LexError as error:
        return ("error", error.message, error.location)
    return [(t.kind, t.value, t.location) for t in tokens]


_FRAGMENTS = (
    list(PUNCTUATION)
    + ['"', "\\", "//", "/*", "*/", "\n", "\r", "\t", " ", "\r\n"]
    + ["a", "Z", "_", "x9", "0", "7", "42", "n", "t", "r", "q"]
    + ["é", "²", "½", "٣", "Ⅻ", "ß"]
    + ["class", "int", "instanceof"]
)

_sources = st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join)


class TestLexerMatchesReference:
    @given(_sources)
    @settings(max_examples=600, deadline=None)
    @example('"a\\q"')
    @example('"abc\\')
    @example('"ab\ncd"')
    @example('"ab')
    @example("x /* never closed")
    @example("/*/ a */ b")
    @example("12abc")
    @example("1½x")
    @example("12²3 ٣٣ x٣")
    @example("\t\ra\n  b\r\n c")
    @example("a // comment\n/* multi\nline */ b")
    def test_same_tokens_or_same_error(self, source):
        expected = _outcome(lambda text: _ReferenceLexer(text, "<t>").tokenize(), source)
        assert _outcome(lambda text: tokenize(text, "<t>"), source) == expected

    @given(st.text(max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text(self, source):
        expected = _outcome(lambda text: _ReferenceLexer(text, "<t>").tokenize(), source)
        assert _outcome(lambda text: tokenize(text, "<t>"), source) == expected
