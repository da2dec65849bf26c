"""SQL tokenizer.

Produces a stream of :class:`Token` objects with line/column positions for
error reporting.  Keywords are case-insensitive; identifiers keep their
original spelling (and may be double-quoted to include spaces or match
reserved words).  String literals use single quotes with ``''`` escaping.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ReproError

__all__ = ["TokenType", "Token", "tokenize", "KEYWORDS"]


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    END = "end"


KEYWORDS = frozenset(
    """
    SELECT DISTINCT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET AS ON
    JOIN INNER LEFT OUTER CROSS UNION ALL INTERSECT EXCEPT
    AND OR NOT IN LIKE BETWEEN IS NULL TRUE FALSE ASC DESC
    CASE WHEN THEN ELSE END
    INSERT INTO VALUES UPDATE SET DELETE CREATE TABLE DROP VIEW WITH CONFIDENCE
    COUNT SUM AVG MIN MAX
    """.split()
)

_OPERATORS = ("<>", "!=", "<=", ">=", "=", "<", ">", "+", "-", "*", "/", "%", "||")
_PUNCTUATION = "(),."


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (1-based)."""

    type: TokenType
    value: str
    line: int
    column: int
    offset: int = 0  # absolute character offset of the token start

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"Token({self.type.value}, {self.value!r}@{self.line}:{self.column})"


def syntax_error(message: str, line: int, column: int) -> ReproError:
    """The ``SqlSyntaxError`` refusal of SQL text, located at *line*, *column*."""
    return ReproError(
        f"{message} at line {line}, column {column}",
        code="SqlSyntaxError",
        line=line,
        column=column,
    )


def tokenize(text: str) -> list[Token]:
    """Tokenize *text*; raises a ``SqlSyntaxError``
    :class:`~repro.errors.ReproError` on any character that cannot start a
    token."""
    tokens: list[Token] = []
    line = 1
    line_start = 0
    position = 0
    length = len(text)

    def location(at: int) -> tuple[int, int]:
        return line, at - line_start + 1

    while position < length:
        char = text[position]
        if char == "\n":
            line += 1
            position += 1
            line_start = position
            continue
        if char in " \t\r":
            position += 1
            continue
        if text.startswith("--", position):
            newline = text.find("\n", position)
            position = length if newline == -1 else newline
            continue
        token_line, token_column = location(position)
        token_offset = position
        if char == "'":
            value, position = _read_string(text, position, token_line, token_column)
            tokens.append(
                Token(TokenType.STRING, value, token_line, token_column, token_offset)
            )
            continue
        if char == '"':
            value, position = _read_quoted_identifier(
                text, position, token_line, token_column
            )
            tokens.append(
                Token(
                    TokenType.IDENTIFIER, value, token_line, token_column, token_offset
                )
            )
            continue
        if char.isdigit() or (
            char == "." and position + 1 < length and text[position + 1].isdigit()
        ):
            value, position, is_float = _read_number(text, position)
            token_type = TokenType.FLOAT if is_float else TokenType.INTEGER
            tokens.append(
                Token(token_type, value, token_line, token_column, token_offset)
            )
            continue
        if char.isalpha() or char == "_":
            end = position
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[position:end]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(
                    Token(
                        TokenType.KEYWORD, upper, token_line, token_column, token_offset
                    )
                )
            else:
                tokens.append(
                    Token(
                        TokenType.IDENTIFIER, word, token_line, token_column, token_offset
                    )
                )
            position = end
            continue
        matched = False
        for operator in _OPERATORS:
            if text.startswith(operator, position):
                tokens.append(
                    Token(
                        TokenType.OPERATOR, operator, token_line, token_column, token_offset
                    )
                )
                position += len(operator)
                matched = True
                break
        if matched:
            continue
        if char in _PUNCTUATION:
            tokens.append(
                Token(
                    TokenType.PUNCTUATION, char, token_line, token_column, token_offset
                )
            )
            position += 1
            continue
        raise syntax_error(
            f"unexpected character {char!r}", token_line, token_column
        )

    end_line, end_column = location(position)
    tokens.append(Token(TokenType.END, "", end_line, end_column, position))
    return tokens


def _read_string(
    text: str, position: int, line: int, column: int
) -> tuple[str, int]:
    """Read a single-quoted string starting at *position*; returns
    (unescaped value, position after the closing quote)."""
    assert text[position] == "'"
    parts: list[str] = []
    cursor = position + 1
    length = len(text)
    while cursor < length:
        char = text[cursor]
        if char == "'":
            if cursor + 1 < length and text[cursor + 1] == "'":
                parts.append("'")
                cursor += 2
                continue
            return "".join(parts), cursor + 1
        parts.append(char)
        cursor += 1
    raise syntax_error("unterminated string literal", line, column)


def _read_quoted_identifier(
    text: str, position: int, line: int, column: int
) -> tuple[str, int]:
    assert text[position] == '"'
    end = text.find('"', position + 1)
    if end == -1:
        raise syntax_error("unterminated quoted identifier", line, column)
    value = text[position + 1 : end]
    if not value:
        raise syntax_error("empty quoted identifier", line, column)
    return value, end + 1


def _read_number(text: str, position: int) -> tuple[str, int, bool]:
    end = position
    length = len(text)
    is_float = False
    while end < length and text[end].isdigit():
        end += 1
    if end < length and text[end] == ".":
        is_float = True
        end += 1
        while end < length and text[end].isdigit():
            end += 1
    if end < length and text[end] in "eE":
        probe = end + 1
        if probe < length and text[probe] in "+-":
            probe += 1
        if probe < length and text[probe].isdigit():
            is_float = True
            end = probe
            while end < length and text[end].isdigit():
                end += 1
    return text[position:end], end, is_float
