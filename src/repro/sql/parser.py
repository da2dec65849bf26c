"""Recursive-descent SQL parser.

Grammar (precedence low → high for expressions):

.. code-block:: text

    statement   := select_core (set_op select_core)* order? limit?
    set_op      := UNION [ALL] | INTERSECT | EXCEPT
    select_core := SELECT [DISTINCT] items FROM from_clause
                   [WHERE expr] [GROUP BY expr_list [HAVING expr]]
                 | '(' statement ')'
    from_clause := table_ref (',' table_ref)* join*
    table_ref   := name [AS? alias] | '(' statement ')' AS? alias
    join        := [INNER | LEFT [OUTER] | CROSS] JOIN table_ref [ON expr]
    expr        := or ; or := and (OR and)* ; and := not (AND not)*
    not         := NOT not | predicate
    predicate   := additive [comparison | IS | LIKE | IN | BETWEEN]
    additive    := multiplicative (('+'|'-'|'||') multiplicative)*
    multiplicative := unary (('*'|'/'|'%') unary)*
    unary       := '-' unary | primary
    primary     := literal | column | function '(' args ')' | '(' expr ')'
                 | aggregate
"""

from __future__ import annotations

from ..algebra.expressions import (
    Arithmetic,
    Between,
    CaseExpression,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Negate,
)
from ..errors import ReproError
from .ast import (
    AggregateCall,
    ColumnDefinition,
    Command,
    CreateTableStatement,
    CreateViewStatement,
    DeleteStatement,
    DerivedTable,
    DropTableStatement,
    DropViewStatement,
    InsertStatement,
    JoinClause,
    NamedTable,
    OrderItem,
    SelectItem,
    SelectStatement,
    SetStatement,
    Star,
    Statement,
    TableRef,
    UpdateStatement,
)
from .lexer import Token, TokenType, syntax_error, tokenize

__all__ = ["parse", "parse_command"]

_AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")
_COMPARISON_OPERATORS = ("=", "<>", "!=", "<", "<=", ">", ">=")


def parse(sql: str) -> Statement:
    """Parse a query (*SELECT*/set operation) into a
    :class:`~repro.sql.ast.Statement`.

    Raises a ``SqlSyntaxError`` :class:`~repro.errors.ReproError` with
    position info on any malformed input, including trailing garbage.
    """
    parser = _Parser(tokenize(sql))
    statement = parser.parse_statement()
    parser.expect_end()
    return statement


def parse_command(sql: str) -> Command:
    """Parse any supported SQL command: queries plus
    CREATE/DROP TABLE, CREATE/DROP VIEW, INSERT, UPDATE, DELETE."""
    parser = _Parser(tokenize(sql), source=sql)
    command = parser.parse_command()
    parser.expect_end()
    return command


class _Parser:
    def __init__(self, tokens: list[Token], source: str = "") -> None:
        self._tokens = tokens
        self._source = source
        self._position = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._position]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.END:
            self._position += 1
        return token

    def _error(self, message: str) -> ReproError:
        token = self._current
        return syntax_error(message, token.line, token.column)

    def _match_keyword(self, *names: str) -> bool:
        if self._current.is_keyword(*names):
            self._advance()
            return True
        return False

    def _expect_keyword(self, name: str) -> None:
        if not self._match_keyword(name):
            raise self._error(f"expected {name}, found {self._current.value!r}")

    def _match_punctuation(self, value: str) -> bool:
        token = self._current
        if token.type is TokenType.PUNCTUATION and token.value == value:
            self._advance()
            return True
        return False

    def _expect_punctuation(self, value: str) -> None:
        if not self._match_punctuation(value):
            raise self._error(
                f"expected {value!r}, found {self._current.value!r}"
            )

    def _match_operator(self, *values: str) -> str | None:
        token = self._current
        if token.type is TokenType.OPERATOR and token.value in values:
            self._advance()
            return token.value
        return None

    def expect_end(self) -> None:
        if self._current.type is not TokenType.END:
            raise self._error(
                f"unexpected trailing input {self._current.value!r}"
            )

    # -- statements ----------------------------------------------------------

    def parse_command(self) -> Command:
        if self._current.is_keyword("CREATE"):
            return self._parse_create()
        if self._current.is_keyword("DROP"):
            return self._parse_drop()
        if self._current.is_keyword("INSERT"):
            return self._parse_insert()
        if self._current.is_keyword("UPDATE"):
            return self._parse_update()
        if self._current.is_keyword("DELETE"):
            return self._parse_delete()
        return self.parse_statement()

    def _identifier(self, what: str) -> str:
        token = self._advance()
        if token.type is not TokenType.IDENTIFIER:
            raise self._error(f"expected {what}, found {token.value!r}")
        return token.value

    def _parse_create(self) -> Command:
        self._expect_keyword("CREATE")
        if self._match_keyword("VIEW"):
            name = self._identifier("view name")
            self._expect_keyword("AS")
            start = self._current.offset
            query = self.parse_statement()
            definition = self._source[start:].strip()
            return CreateViewStatement(name, query, definition)
        return self._parse_create_table()

    def _parse_create_table(self) -> CreateTableStatement:
        self._expect_keyword("TABLE")
        name = self._identifier("table name")
        self._expect_punctuation("(")
        columns = [self._parse_column_definition()]
        while self._match_punctuation(","):
            columns.append(self._parse_column_definition())
        self._expect_punctuation(")")
        return CreateTableStatement(name, columns)

    def _parse_column_definition(self) -> ColumnDefinition:
        name = self._identifier("column name")
        type_token = self._advance()
        if type_token.type is not TokenType.IDENTIFIER:
            raise self._error(
                f"expected a type name, found {type_token.value!r}"
            )
        nullable = True
        if self._match_keyword("NOT"):
            self._expect_keyword("NULL")
            nullable = False
        return ColumnDefinition(name, type_token.value, nullable)

    def _parse_drop(self) -> Command:
        self._expect_keyword("DROP")
        if self._match_keyword("VIEW"):
            return DropViewStatement(self._identifier("view name"))
        self._expect_keyword("TABLE")
        return DropTableStatement(self._identifier("table name"))

    def _parse_insert(self) -> InsertStatement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._identifier("table name")
        columns: list[str] | None = None
        if self._match_punctuation("("):
            columns = [self._identifier("column name")]
            while self._match_punctuation(","):
                columns.append(self._identifier("column name"))
            self._expect_punctuation(")")
        self._expect_keyword("VALUES")
        rows = [self._parse_value_row()]
        while self._match_punctuation(","):
            rows.append(self._parse_value_row())
        confidence = self._parse_with_confidence()
        return InsertStatement(table, columns, rows, confidence)

    def _parse_value_row(self) -> list[Expression]:
        self._expect_punctuation("(")
        values = [self._parse_expression()]
        while self._match_punctuation(","):
            values.append(self._parse_expression())
        self._expect_punctuation(")")
        return values

    def _parse_with_confidence(self) -> Expression | None:
        if not self._match_keyword("WITH"):
            return None
        self._expect_keyword("CONFIDENCE")
        return self._parse_expression()

    def _parse_update(self) -> UpdateStatement:
        self._expect_keyword("UPDATE")
        table = self._identifier("table name")
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._match_punctuation(","):
            assignments.append(self._parse_assignment())
        where = self._parse_expression() if self._match_keyword("WHERE") else None
        confidence = self._parse_with_confidence()
        return UpdateStatement(table, assignments, where, confidence)

    def _parse_assignment(self) -> tuple[str, Expression]:
        column = self._identifier("column name")
        if self._match_operator("=") is None:
            raise self._error("expected '=' in SET assignment")
        return column, self._parse_expression()

    def _parse_delete(self) -> DeleteStatement:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._identifier("table name")
        where = self._parse_expression() if self._match_keyword("WHERE") else None
        return DeleteStatement(table, where)

    def parse_statement(self) -> Statement:
        statement = self._parse_select_core()
        while True:
            kind = self._set_operation_kind()
            if kind is None:
                break
            right = self._parse_select_core()
            statement = SetStatement(statement, right, kind)
        order_by = self._parse_order_by()
        limit, offset = self._parse_limit()
        if order_by or limit is not None or offset:
            if isinstance(statement, SetStatement):
                statement = SetStatement(
                    statement.left,
                    statement.right,
                    statement.kind,
                    order_by=order_by,
                    limit=limit,
                    offset=offset,
                )
            else:
                statement = SelectStatement(
                    items=statement.items,
                    from_tables=statement.from_tables,
                    joins=statement.joins,
                    where=statement.where,
                    group_by=statement.group_by,
                    having=statement.having,
                    distinct=statement.distinct,
                    order_by=order_by,
                    limit=limit,
                    offset=offset,
                )
        return statement

    def _set_operation_kind(self) -> str | None:
        if self._match_keyword("UNION"):
            return "union_all" if self._match_keyword("ALL") else "union"
        if self._match_keyword("INTERSECT"):
            return "intersect"
        if self._match_keyword("EXCEPT"):
            return "except"
        return None

    def _parse_select_core(self) -> SelectStatement:
        if self._match_punctuation("("):
            inner = self.parse_statement()
            self._expect_punctuation(")")
            if isinstance(inner, SetStatement):
                raise self._error(
                    "parenthesised set operations are not supported as "
                    "set-operation operands"
                )
            return inner
        self._expect_keyword("SELECT")
        distinct = self._match_keyword("DISTINCT")
        if self._match_keyword("ALL"):
            distinct = False
        items = self._parse_select_items()
        self._expect_keyword("FROM")
        from_tables = [self._parse_table_ref()]
        joins: list[JoinClause] = []
        while True:
            if self._match_punctuation(","):
                from_tables.append(self._parse_table_ref())
                continue
            join = self._parse_join()
            if join is None:
                break
            joins.append(join)
        where = self._parse_expression() if self._match_keyword("WHERE") else None
        group_by: list[Expression] = []
        having = None
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_expression())
            while self._match_punctuation(","):
                group_by.append(self._parse_expression())
            if self._match_keyword("HAVING"):
                having = self._parse_expression()
        return SelectStatement(
            items=items,
            from_tables=from_tables,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
        )

    def _parse_select_items(self) -> list[SelectItem]:
        items = [self._parse_select_item()]
        while self._match_punctuation(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> SelectItem:
        token = self._current
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return SelectItem(Star())
        # alias.*
        if (
            token.type is TokenType.IDENTIFIER
            and self._peek_is_dot_star()
        ):
            self._advance()  # identifier
            self._advance()  # .
            self._advance()  # *
            return SelectItem(Star(token.value))
        expression = self._parse_expression()
        alias = self._parse_alias(optional_as=True)
        return SelectItem(expression, alias)

    def _peek_is_dot_star(self) -> bool:
        if self._position + 2 >= len(self._tokens):
            return False
        dot = self._tokens[self._position + 1]
        star = self._tokens[self._position + 2]
        return (
            dot.type is TokenType.PUNCTUATION
            and dot.value == "."
            and star.type is TokenType.OPERATOR
            and star.value == "*"
        )

    def _parse_alias(self, optional_as: bool) -> str | None:
        if self._match_keyword("AS"):
            token = self._advance()
            if token.type is not TokenType.IDENTIFIER:
                raise self._error("expected alias after AS")
            return token.value
        if optional_as and self._current.type is TokenType.IDENTIFIER:
            return self._advance().value
        return None

    def _parse_table_ref(self) -> TableRef:
        if self._match_punctuation("("):
            query = self.parse_statement()
            self._expect_punctuation(")")
            alias = self._parse_alias(optional_as=True)
            if alias is None:
                raise self._error("derived table requires an alias")
            return DerivedTable(query, alias)
        token = self._advance()
        if token.type is not TokenType.IDENTIFIER:
            raise self._error(f"expected table name, found {token.value!r}")
        alias = self._parse_alias(optional_as=True)
        return NamedTable(token.value, alias)

    def _parse_join(self) -> JoinClause | None:
        kind: str | None = None
        if self._match_keyword("INNER"):
            kind = "inner"
        elif self._match_keyword("LEFT"):
            self._match_keyword("OUTER")
            kind = "left"
        elif self._match_keyword("CROSS"):
            kind = "cross"
        if kind is None:
            if not self._current.is_keyword("JOIN"):
                return None
            kind = "inner"
        self._expect_keyword("JOIN")
        table = self._parse_table_ref()
        condition = None
        if kind != "cross":
            self._expect_keyword("ON")
            condition = self._parse_expression()
        return JoinClause(kind, table, condition)

    def _parse_order_by(self) -> tuple[OrderItem, ...]:
        if not self._match_keyword("ORDER"):
            return ()
        self._expect_keyword("BY")
        items = [self._parse_order_item()]
        while self._match_punctuation(","):
            items.append(self._parse_order_item())
        return tuple(items)

    def _parse_order_item(self) -> OrderItem:
        token = self._current
        if token.type is TokenType.INTEGER:
            self._advance()
            expression: Expression | int = int(token.value)
        else:
            expression = self._parse_expression()
        descending = False
        if self._match_keyword("DESC"):
            descending = True
        else:
            self._match_keyword("ASC")
        return OrderItem(expression, descending)

    def _parse_limit(self) -> tuple[int | None, int]:
        if not self._match_keyword("LIMIT"):
            return None, 0
        token = self._advance()
        if token.type is not TokenType.INTEGER:
            raise self._error("LIMIT expects an integer")
        limit = int(token.value)
        offset = 0
        if self._match_keyword("OFFSET"):
            token = self._advance()
            if token.type is not TokenType.INTEGER:
                raise self._error("OFFSET expects an integer")
            offset = int(token.value)
        return limit, offset

    # -- expressions --------------------------------------------------------

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._match_keyword("OR"):
            left = LogicalOr(left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._match_keyword("AND"):
            left = LogicalAnd(left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self._match_keyword("NOT"):
            return LogicalNot(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        left = self._parse_additive()
        operator = self._match_operator(*_COMPARISON_OPERATORS)
        if operator is not None:
            if operator == "!=":
                operator = "<>"
            return Comparison(operator, left, self._parse_additive())
        if self._match_keyword("IS"):
            negated = self._match_keyword("NOT")
            self._expect_keyword("NULL")
            return IsNull(left, negated)
        negated = self._match_keyword("NOT")
        if self._match_keyword("LIKE"):
            token = self._advance()
            if token.type is not TokenType.STRING:
                raise self._error("LIKE expects a string pattern")
            return Like(left, token.value, negated)
        if self._match_keyword("IN"):
            self._expect_punctuation("(")
            if self._current.is_keyword("SELECT"):
                from .ast import InSubquery

                query = self.parse_statement()
                self._expect_punctuation(")")
                return InSubquery(left, query, negated)
            options = [self._parse_expression()]
            while self._match_punctuation(","):
                options.append(self._parse_expression())
            self._expect_punctuation(")")
            return InList(left, options, negated)
        if self._match_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return Between(left, low, high, negated)
        if negated:
            raise self._error("expected LIKE, IN or BETWEEN after NOT")
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            operator = self._match_operator("+", "-", "||")
            if operator is None:
                return left
            right = self._parse_multiplicative()
            if operator == "||":
                operator = "+"  # TEXT + TEXT concatenates
            left = Arithmetic(operator, left, right)

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            operator = self._match_operator("*", "/", "%")
            if operator is None:
                return left
            left = Arithmetic(operator, left, self._parse_unary())

    def _parse_unary(self) -> Expression:
        if self._match_operator("-"):
            return Negate(self._parse_unary())
        self._match_operator("+")  # unary plus is a no-op
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._current
        if token.type is TokenType.INTEGER:
            self._advance()
            return Literal(int(token.value))
        if token.type is TokenType.FLOAT:
            self._advance()
            return Literal(float(token.value))
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)
        if token.is_keyword("NULL"):
            self._advance()
            return Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword(*_AGGREGATES):
            return self._parse_aggregate()
        if token.type is TokenType.PUNCTUATION and token.value == "(":
            self._advance()
            inner = self._parse_expression()
            self._expect_punctuation(")")
            return inner
        if token.type is TokenType.IDENTIFIER:
            return self._parse_identifier_expression()
        raise self._error(f"unexpected token {token.value!r} in expression")

    def _parse_case(self) -> Expression:
        self._expect_keyword("CASE")
        whens: list[tuple[Expression, Expression]] = []
        while self._match_keyword("WHEN"):
            condition = self._parse_expression()
            self._expect_keyword("THEN")
            whens.append((condition, self._parse_expression()))
        if not whens:
            raise self._error("CASE requires at least one WHEN branch")
        default = None
        if self._match_keyword("ELSE"):
            default = self._parse_expression()
        self._expect_keyword("END")
        return CaseExpression(whens, default)

    def _parse_aggregate(self) -> Expression:
        function = self._advance().value  # the aggregate keyword
        self._expect_punctuation("(")
        if function == "COUNT" and self._match_operator("*"):
            self._expect_punctuation(")")
            return AggregateCall("COUNT", None)
        distinct = self._match_keyword("DISTINCT")
        argument = self._parse_expression()
        self._expect_punctuation(")")
        return AggregateCall(function, argument, distinct)

    def _parse_identifier_expression(self) -> Expression:
        first = self._advance().value
        if self._match_punctuation("."):
            token = self._advance()
            if token.type is not TokenType.IDENTIFIER:
                raise self._error("expected column name after '.'")
            return ColumnRef(token.value, first)
        if self._current.type is TokenType.PUNCTUATION and self._current.value == "(":
            self._advance()
            arguments = []
            if not self._match_punctuation(")"):
                arguments.append(self._parse_expression())
                while self._match_punctuation(","):
                    arguments.append(self._parse_expression())
                self._expect_punctuation(")")
            return FunctionCall(first, arguments)
        return ColumnRef(first)
