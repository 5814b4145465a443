"""Unit tests for operand expressions (repro.isa.expr)."""

import pytest

from repro.isa.expr import (
    BinOp,
    Const,
    Expr,
    Reg,
    UnOp,
    compile_expr,
    evaluate,
    registers_read,
    to_expr,
)


class TestConstruction:
    def test_reg_repr(self):
        assert repr(Reg("r1")) == "r1"

    def test_const_repr(self):
        assert repr(Const(42)) == "42"

    def test_binop_repr(self):
        assert repr(BinOp("+", Reg("r1"), Const(2))) == "(r1 + 2)"

    def test_unop_repr(self):
        assert repr(UnOp("-", Reg("r1"))) == "-r1"

    def test_binop_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            BinOp("%", Reg("r1"), Const(2))

    def test_unop_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            UnOp("%", Reg("r1"))

    def test_expressions_are_hashable(self):
        e1 = BinOp("+", Reg("r1"), Const(1))
        e2 = BinOp("+", Reg("r1"), Const(1))
        assert e1 == e2
        assert hash(e1) == hash(e2)
        assert len({e1, e2}) == 1


class TestOperatorOverloading:
    def test_add_builds_binop(self):
        expr = Reg("r1") + 1
        assert expr == BinOp("+", Reg("r1"), Const(1))

    def test_radd_coerces_left_operand(self):
        expr = 1 + Reg("r1")
        assert expr == BinOp("+", Const(1), Reg("r1"))

    def test_sub_chain_matches_paper_artificial_dep(self):
        # The r2 = a + r1 - r1 pattern of Figure 13b.
        expr = Const(0x100) + Reg("r1") - Reg("r1")
        assert registers_read(expr) == frozenset({"r1"})
        assert evaluate(expr, {"r1": 99}) == 0x100

    def test_mul_xor_and_or_neg(self):
        regs = {"r1": 6, "r2": 3}
        assert evaluate(Reg("r1") * Reg("r2"), regs) == 18
        assert evaluate(Reg("r1") ^ Reg("r2"), regs) == 5
        assert evaluate(Reg("r1") & Reg("r2"), regs) == 2
        assert evaluate(Reg("r1") | Reg("r2"), regs) == 7
        assert evaluate(-Reg("r1"), regs) == -6

    def test_rsub_and_rmul(self):
        assert evaluate(10 - Reg("r1"), {"r1": 4}) == 6
        assert evaluate(3 * Reg("r1"), {"r1": 4}) == 12

    def test_rxor(self):
        assert evaluate(5 ^ Reg("r1"), {"r1": 3}) == 6


class TestToExpr:
    def test_int_becomes_const(self):
        assert to_expr(7) == Const(7)

    def test_str_becomes_reg(self):
        assert to_expr("r9") == Reg("r9")

    def test_expr_passthrough(self):
        expr = Reg("r1") + 1
        assert to_expr(expr) is expr

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            to_expr(True)

    def test_other_types_rejected(self):
        with pytest.raises(TypeError):
            to_expr(3.14)


class TestRegistersRead:
    def test_const_reads_nothing(self):
        assert registers_read(Const(5)) == frozenset()

    def test_reg_reads_itself(self):
        assert registers_read(Reg("r3")) == frozenset({"r3"})

    def test_nested_union(self):
        expr = (Reg("a") + Reg("b")) * UnOp("-", Reg("c"))
        assert registers_read(expr) == frozenset({"a", "b", "c"})

    def test_syntactic_not_semantic(self):
        # r - r still *reads* r: implementations must respect syntactic
        # dependencies (Section III-D2).
        expr = Reg("r") - Reg("r")
        assert registers_read(expr) == frozenset({"r"})

    def test_non_expr_rejected(self):
        with pytest.raises(TypeError):
            registers_read("r1")  # type: ignore[arg-type]


class TestEvaluate:
    def test_comparison_operators_return_01(self):
        regs = {"x": 5}
        assert evaluate(BinOp("==", Reg("x"), Const(5)), regs) == 1
        assert evaluate(BinOp("!=", Reg("x"), Const(5)), regs) == 0
        assert evaluate(BinOp("<", Reg("x"), Const(9)), regs) == 1
        assert evaluate(BinOp(">=", Reg("x"), Const(9)), regs) == 0

    def test_unop_not(self):
        assert evaluate(UnOp("!", Const(0)), {}) == 1
        assert evaluate(UnOp("!", Const(7)), {}) == 0

    def test_unop_invert(self):
        assert evaluate(UnOp("~", Const(0)), {}) == -1

    def test_missing_register_raises(self):
        with pytest.raises(KeyError):
            evaluate(Reg("nope"), {})

    def test_deep_nesting(self):
        expr = Const(1)
        for _ in range(50):
            expr = expr + 1
        assert evaluate(expr, {}) == 51


class TestCompileExpr:
    @pytest.mark.parametrize(
        "expr",
        [
            Const(7),
            Reg("x"),
            Const(0x100) + Reg("x") - Reg("x"),
            BinOp("==", Reg("x"), Const(5)),
            BinOp(">=", Reg("y") * 3, Reg("x") ^ 1),
            UnOp("!", Reg("y")),
            -(Reg("x") | Reg("y")) & 0xFF,
            UnOp("~", Reg("x")),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("regs", [{"x": 0, "y": 0}, {"x": 5, "y": -2}])
    def test_agrees_with_evaluate(self, expr, regs):
        assert compile_expr(expr)(regs) == evaluate(expr, regs)

    def test_missing_register_raises(self):
        with pytest.raises(KeyError):
            compile_expr(Reg("nope"))({})

    def test_non_expr_rejected(self):
        with pytest.raises(TypeError):
            compile_expr("r1")  # type: ignore[arg-type]
