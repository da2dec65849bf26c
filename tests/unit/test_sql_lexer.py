"""Unit tests for the SQL lexer."""

from repro.errors import ReproError
from repro.sql import Token, TokenType, tokenize
from tests.error_codes import raises_code


def kinds(sql):
    return [(token.type, token.value) for token in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_keywords_uppercased(self):
        assert kinds("select from") == [
            (TokenType.KEYWORD, "SELECT"),
            (TokenType.KEYWORD, "FROM"),
        ]

    def test_identifiers_keep_case(self):
        assert kinds("Proposal") == [(TokenType.IDENTIFIER, "Proposal")]

    def test_integer_and_float(self):
        assert kinds("42 4.5 .5 1e3 2E-2") == [
            (TokenType.INTEGER, "42"),
            (TokenType.FLOAT, "4.5"),
            (TokenType.FLOAT, ".5"),
            (TokenType.FLOAT, "1e3"),
            (TokenType.FLOAT, "2E-2"),
        ]

    def test_operators(self):
        values = [value for _, value in kinds("= <> != <= >= < > + - * / %")]
        assert values == ["=", "<>", "!=", "<=", ">=", "<", ">", "+", "-", "*", "/", "%"]

    def test_concat_operator(self):
        assert kinds("a || b")[1] == (TokenType.OPERATOR, "||")

    def test_punctuation(self):
        values = [value for _, value in kinds("( ) , .")]
        assert values == ["(", ")", ",", "."]

    def test_end_token(self):
        tokens = tokenize("x")
        assert tokens[-1].type is TokenType.END


class TestStrings:
    def test_simple_string(self):
        assert kinds("'hello'") == [(TokenType.STRING, "hello")]

    def test_escaped_quote(self):
        assert kinds("'it''s'") == [(TokenType.STRING, "it's")]

    def test_unterminated_string(self):
        with raises_code(ReproError, "SqlSyntaxError"):
            tokenize("'oops")

    def test_quoted_identifier(self):
        assert kinds('"weird name"') == [(TokenType.IDENTIFIER, "weird name")]

    def test_unterminated_quoted_identifier(self):
        with raises_code(ReproError, "SqlSyntaxError"):
            tokenize('"oops')

    def test_empty_quoted_identifier(self):
        with raises_code(ReproError, "SqlSyntaxError"):
            tokenize('""')


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        assert kinds("select -- comment\n x") == [
            (TokenType.KEYWORD, "SELECT"),
            (TokenType.IDENTIFIER, "x"),
        ]

    def test_comment_at_end(self):
        assert kinds("x -- trailing") == [(TokenType.IDENTIFIER, "x")]

    def test_positions_tracked(self):
        tokens = tokenize("select\n  foo")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_unexpected_character(self):
        with raises_code(ReproError, "SqlSyntaxError") as excinfo:
            tokenize("select @")
        assert "line 1" in str(excinfo.value)


class TestTokenHelpers:
    def test_is_keyword(self):
        token = tokenize("SELECT")[0]
        assert token.is_keyword("SELECT")
        assert token.is_keyword("SELECT", "FROM")
        assert not token.is_keyword("FROM")
