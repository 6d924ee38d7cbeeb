"""Scalar expression AST: Python evaluation, Spark compilation, columns."""
import pytest
from pyspark.sql import functions as F

from repro.core.sexpr import (
    BinOp,
    Col,
    GetField,
    IfScalar,
    IsNotNull,
    Lit,
    MkStruct,
    Not,
    RawCol,
    cname,
    columns_of,
    eval_row,
    to_sql,
)

ROW = {"x__a": 3, "x__b": 2.0, "y__c": 7, "raw": "s", "n": None}


@pytest.mark.parametrize(
    "op,l,r,expected",
    [
        ("+", 3, 4, 7),
        ("-", 3, 4, -1),
        ("*", 3, 4, 12),
        ("/", 8, 4, 2.0),
        ("==", 3, 3, True),
        ("==", 3, 4, False),
        ("!=", 3, 4, True),
        ("<", 3, 4, True),
        ("<=", 4, 4, True),
        (">", 5, 4, True),
        (">=", 3, 4, False),
        ("&&", True, False, False),
        ("&&", True, True, True),
        ("||", False, True, True),
        ("||", False, False, False),
    ],
)
def test_binop_eval(op, l, r, expected):
    assert eval_row(BinOp(op, Lit(l), Lit(r)), {}) == expected


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "==", "<", ">="])
def test_binop_null_propagates(op):
    assert eval_row(BinOp(op, Lit(1), RawCol("n")), ROW) is None


def test_col_naming_convention():
    assert cname("x", "a") == "x__a"
    assert Col("x", "a").colname == "x__a"


def test_col_eval():
    assert eval_row(Col("x", "a"), ROW) == 3
    assert eval_row(RawCol("raw"), ROW) == "s"


def test_missing_col_is_null():
    assert eval_row(Col("z", "zz"), ROW) is None


def test_not_eval():
    assert eval_row(Not(Lit(True)), {}) is False
    assert eval_row(Not(RawCol("n")), ROW) is None


def test_if_scalar():
    e = IfScalar(BinOp(">", Col("x", "a"), Lit(1)), Lit("big"), Lit("small"))
    assert eval_row(e, ROW) == "big"
    assert eval_row(e, {"x__a": 0}) == "small"


def test_is_not_null():
    assert eval_row(IsNotNull(Col("x", "a")), ROW) is True
    assert eval_row(IsNotNull(RawCol("n")), ROW) is False


def test_mkstruct_getfield_eval():
    s = MkStruct((("p", Col("x", "a")), ("q", Col("y", "c"))))
    assert eval_row(s, ROW) == {"p": 3, "q": 7}
    assert eval_row(GetField(s, "q"), ROW) == 7
    assert eval_row(GetField(RawCol("n"), "q"), ROW) is None


def test_columns_of():
    e = BinOp(
        "+",
        IfScalar(IsNotNull(Col("x", "a")), Col("x", "b"), Lit(0)),
        GetField(MkStruct((("p", RawCol("raw")),)), "p"),
    )
    assert columns_of(e) == {"x__a", "x__b", "raw"}


def test_columns_of_literal_empty():
    assert columns_of(Lit(5)) == set()


# ROW as a one-row frame, plus ``nb``, a NULL boolean.
SPARK_ROW = {**ROW, "nb": None}
SPARK_SCHEMA = "x__a int, x__b double, y__c int, raw string, n int, nb boolean"
X, Y, N, NB = Col("x", "a"), Col("y", "c"), RawCol("n"), RawCol("nb")
GT, LT = BinOp(">", X, Lit(1)), BinOp("<", Y, Lit(5))
ALL_OPS = ["+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">=", "&&", "||"]


def _spark_eval_cases():
    for op in ALL_OPS:
        if op in ("&&", "||"):
            yield BinOp(op, GT, LT)
            yield BinOp(op, LT, GT)
            yield BinOp(op, NB, Lit(op == "||"))
        else:
            yield BinOp(op, X, Y)
            yield BinOp(op, X, N)
            yield BinOp(op, N, Lit(2))
    yield Not(GT)
    yield Not(NB)
    yield IfScalar(GT, Lit("big"), Lit("small"))
    yield IfScalar(LT, Lit("big"), Lit("small"))
    yield IfScalar(NB, Lit(1), Lit(2))
    yield GetField(MkStruct((("p", X), ("q", Y))), "q")
    yield GetField(MkStruct((("p", N),)), "p")
    yield IsNotNull(X)
    yield IsNotNull(N)
    yield BinOp("*", Col("x", "b"), Lit(1.5))
    yield BinOp("==", RawCol("raw"), Lit("s"))
    # The other NULL operand pairs of AND/OR, three-valued in both.
    for op in ("&&", "||"):
        yield BinOp(op, NB, Lit(op == "&&"))
        yield BinOp(op, Lit(True), NB)
        yield BinOp(op, Lit(False), NB)
        yield BinOp(op, NB, NB)


@pytest.fixture(scope="module")
def row_df(spark):
    return spark.createDataFrame([tuple(SPARK_ROW.values())], SPARK_SCHEMA)


@pytest.mark.parametrize(
    "expr,expected",
    [
        (BinOp("*", Col("x", "a"), Lit(2)), 6),
        (BinOp("&&", BinOp(">", Col("x", "a"), Lit(0)), Lit(True)), True),
        (IfScalar(Lit(False), Lit(1), Lit(2)), 2),
    ]
    + [(e, eval_row(e, SPARK_ROW)) for e in _spark_eval_cases()],
)
def test_spark_eval_matches_python(row_df, expr, expected):
    got = row_df.selectExpr(f"{to_sql(expr)} AS v").collect()[0]["v"]
    assert eval_row(expr, SPARK_ROW) == expected
    assert got == expected
    assert (got is None) == (expected is None)


@pytest.mark.parametrize(
    "value,spark_type",
    [
        (5, "int"),
        (-(2**31), "int"),
        (2**31, "bigint"),
        (-(2**40), "bigint"),
        (1.5, "double"),
        (-2e-7, "double"),
        ("it's a \\ path", "string"),
        (True, "boolean"),
        (False, "boolean"),
    ],
)
def test_literal_keeps_spark_type(spark, value, spark_type):
    df = spark.range(1).selectExpr(f"{to_sql(Lit(value))} AS v")
    lit = spark.range(1).select(F.lit(value).alias("v"))
    assert df.schema["v"].dataType == lit.schema["v"].dataType
    assert df.schema["v"].dataType.simpleString() == spark_type
    assert df.collect()[0]["v"] == value


def test_null_literal_takes_other_branch_type(spark):
    e = IfScalar(Lit(True), Lit(None), Lit(1))
    df = spark.range(1).selectExpr(f"{to_sql(e)} AS v")
    assert df.schema["v"].dataType.simpleString() == "int"
    assert df.collect()[0]["v"] is None


def test_sql_quotes_identifiers():
    e = GetField(RawCol("a`b c"), "order")
    assert to_sql(e) == "`a``b c`.`order`"
    assert to_sql(Col("x", "select")) == "`x__select`"


def test_spark_struct_and_getfield(spark):
    df = spark.createDataFrame([{"x__a": 3, "y__c": 7}])
    e = GetField(MkStruct((("p", Col("x", "a")), ("q", Col("y", "c")))), "q")
    assert df.selectExpr(to_sql(e)).collect()[0][0] == 7


def test_spark_is_not_null(spark):
    df = spark.createDataFrame([{"a": 1, "b": None}], "a int, b int")
    e = IsNotNull(RawCol("b"))
    assert df.selectExpr(to_sql(e)).collect()[0][0] is False


def test_unknown_sexpr_raises():
    class Weird:  # not an SExpr
        pass

    with pytest.raises(TypeError):
        eval_row(Weird(), {})  # type: ignore[arg-type]
