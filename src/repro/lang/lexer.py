"""Regex-driven lexer for the jmini language.

jmini is the small Java-like language used by this reproduction: the
benchmark applications (our stand-ins for Jetty, JavaEmailServer and
CrossFTP) and the Jvolve transformer classes are all written in it.

The lexer supports ``//`` line comments, ``/* ... */`` block comments,
decimal integer literals, double-quoted string literals with the escape
sequences ``\\n \\t \\r \\\\ \\" \\0``, identifiers, keywords and
punctuation.

One compiled master pattern is matched at the current position; its
named group says what was matched. Line and column come from newline
counts: the column counts characters since the last ``\\n`` (a tab or a
``\\r`` is one column). Letters and digits have :class:`str` semantics:
a word is a run of ``\\w`` (``isalnum()`` or ``_``); it is an identifier
when it starts with ``isalpha()`` or ``_``, and an integer literal is
its leading ``isdecimal()`` run, which :func:`int` always accepts (a
digit that is not decimal, such as ``'²'``, ends the literal and is
rejected on its own).
"""

from __future__ import annotations

import re
from typing import List

from .errors import LexError, SourceLocation
from .tokens import KEYWORDS, PUNCTUATION, Token, TokenKind

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"', "0": "\0"}

_MASTER = re.compile(
    "|".join(
        (
            # whitespace and complete comments, any number in a row
            r"(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)+)",
            # a block comment that never closes
            r"(?P<open_comment>/\*)",
            # a string literal's longest well-formed prefix; ``close`` is
            # empty when the next character ends it badly
            r'(?P<string>"(?P<body>(?:[^"\\\n]|\\[ntr\\"0])*)(?P<close>"?))',
            r"(?P<word>\w+)",
            "(?P<punct>" + "|".join(re.escape(p) for p in PUNCTUATION) + ")",
        )
    )
)
_ESCAPE = re.compile(r"\\(.)")


def _decode_escape(match: "re.Match[str]") -> str:
    return _ESCAPES[match.group(1)]


def _string_error(source: str, end: int) -> str:
    """Why the string literal whose well-formed prefix stops at ``end``
    is malformed."""
    if end >= len(source):
        return "unterminated string literal"
    char = source[end]
    if char == "\n":
        return "newline in string literal"
    # the only other stop: a backslash not starting a known escape
    if end + 1 >= len(source):
        return "unterminated escape sequence"
    return f"unknown escape sequence \\{source[end + 1]}"


def tokenize(source: str, filename: str = "<source>") -> List[Token]:
    """Lex ``source`` into tokens terminated by one EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    match = _MASTER.match
    keywords = KEYWORDS
    ident, keyword, integer = TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.INT_LITERAL
    punct, string = TokenKind.PUNCT, TokenKind.STRING_LITERAL
    end_of_source = len(source)
    pos = 0
    line = 1
    line_start = 0  # index just after the last newline before ``pos``
    while pos < end_of_source:
        found = match(source, pos)
        if found is None:
            location = SourceLocation(filename, line, pos - line_start + 1)
            raise LexError(f"unexpected character {source[pos]!r}", location)
        kind = found.lastgroup
        end = found.end()
        if kind == "skip":
            newlines = source.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, end) + 1
            pos = end
            continue
        location = SourceLocation(filename, line, pos - line_start + 1)
        if kind == "punct":
            append(Token(punct, found.group(kind), location))
        elif kind == "word":
            word = found.group(kind)
            first = word[0]
            if first.isalpha() or first == "_":
                append(Token(keyword if word in keywords else ident, word, location))
            elif first.isdecimal():
                if not word.isdecimal():
                    digits = 1
                    while word[digits].isdecimal():
                        digits += 1
                    after = word[digits]
                    if after.isalpha() or after == "_":
                        raise LexError("identifier may not start with a digit", location)
                    # a numeric character that is not a decimal digit
                    # ends the literal; it is lexed (and rejected) on its own
                    word = word[:digits]
                    end = pos + digits
                append(Token(integer, word, location))
            else:
                raise LexError(f"unexpected character {first!r}", location)
        elif kind == "string":
            if not found.group("close"):
                raise LexError(_string_error(source, end), location)
            text = found.group("body")
            if "\\" in text:
                text = _ESCAPE.sub(_decode_escape, text)
            append(Token(string, text, location))
        else:  # open_comment
            raise LexError("unterminated block comment", location)
        pos = end
    append(Token(TokenKind.EOF, "", SourceLocation(filename, line, pos - line_start + 1)))
    return tokens
