"""Expression language tests: precedence, slot rules, round trips, evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predprey import expressions as ex
from predprey.grid import DomainSpec, Field, build_grid


PRECEDENCE_CASES = [
    ("2+3*4", 14.0),
    ("2*3+4", 10.0),
    ("2-3-4", -5.0),
    ("1-2+3", 2.0),
    ("2^3^2", 512.0),       # right-associative
    ("-2^2", -4.0),         # power binds tighter than unary minus
    ("(-2)^2", 4.0),
    ("2^-2", 0.25),
    ("6/3/2", 1.0),
    ("2*3^2", 18.0),
    ("1/2^2", 0.25),
    ("-(1+2)", -3.0),
    ("--2", 2.0),
    ("-2*3", -6.0),
    ("2*(3+4)", 14.0),
    ("min(1,2)+max(3,4)", 5.0),
    ("exp(0)", 1.0),
    ("abs(-3)", 3.0),
    ("tanh(0)", 0.0),
    ("pi-pi", 0.0),
    ("2+2^2*3", 14.0),
    ("(1+2)^2", 9.0),
]


@pytest.mark.parametrize("src,expected", PRECEDENCE_CASES)
def test_precedence_table(src, expected):
    tree = ex.parse(src, ex.Slot.SOURCE_A)
    assert ex.evaluate(tree, {}) == pytest.approx(expected)


def test_parse_alpha_slot_accepts_w():
    tree = ex.parse("1 - w", ex.Slot.ALPHA)
    assert ex.evaluate(tree, {"w": 0.25}) == pytest.approx(0.75)


def test_slot_rule_rejects_u_in_source():
    with pytest.raises(ex.ForbiddenVariable) as err:
        ex.parse("u*w", ex.Slot.SOURCE_B)
    assert err.value.name == "u"


def test_slot_rule_rejects_w_in_init():
    with pytest.raises(ex.ForbiddenVariable):
        ex.parse("x + w", ex.Slot.INIT)


def test_unknown_identifier_is_forbidden_not_silent():
    with pytest.raises(ex.ForbiddenVariable):
        ex.parse("x + quux", ex.Slot.SOURCE_A)


def test_syntax_errors_carry_position():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("1 + * 2", ex.Slot.SOURCE_A)
    assert err.value.position == 4
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("", ex.Slot.SOURCE_A)
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("min(1)", ex.Slot.SOURCE_A)
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("(1+2", ex.Slot.SOURCE_A)


def test_eval_examples():
    tree = ex.parse("exp(-t)*sin(x)", ex.Slot.SOURCE_A)
    assert ex.evaluate(tree, {"t": 0.0, "x": 0.0}) == 0.0
    clamp = ex.parse("min(1, max(0, w))", ex.Slot.ALPHA)
    assert ex.evaluate(clamp, {"w": 2.0}) == 1.0
    assert ex.evaluate(ex.parse("tanh(3*0.5)", ex.Slot.SOURCE_A), {}) == pytest.approx(
        math.tanh(1.5), abs=1e-12
    )


def test_eval_nonfinite_division():
    tree = ex.parse("1/x", ex.Slot.SOURCE_A)
    with pytest.raises(ex.NonFiniteValue):
        ex.evaluate(tree, {"x": 0.0})


def test_eval_nonfinite_power():
    tree = ex.parse("x^-1", ex.Slot.SOURCE_A)
    with pytest.raises(ex.NonFiniteValue):
        ex.evaluate(tree, {"x": 0.0})


def test_eval_missing_variable():
    tree = ex.parse("x + t", ex.Slot.SOURCE_A)
    with pytest.raises(ex.MissingVariable):
        ex.evaluate(tree, {"x": 1.0})


def test_sample_field_constant_and_state():
    g = build_grid(DomainSpec(((0.0, 1.0),)), 8)
    one = ex.sample_field(ex.parse("1", ex.Slot.ALPHA), g, 0.0)
    assert np.all(one.values == 1.0)
    w = Field(g, np.full(8, 0.5))
    f = ex.sample_field(ex.parse("-w", ex.Slot.BETA), g, 0.0, w=w)
    assert np.all(f.values == -0.5)


def test_sample_field_sine_profile():
    g = build_grid(DomainSpec(((0.0, 1.0),)), 8)
    f = ex.sample_field(ex.parse("sin(pi*x)", ex.Slot.SOURCE_A), g, 0.0)
    assert np.allclose(f.values, np.sin(np.pi * g.axis_centers[0]))


def test_sample_field_nonfinite_reports_cell():
    g = build_grid(DomainSpec(((0.0, 1.0),)), 8)
    with pytest.raises(ex.NonFiniteValue) as err:
        ex.sample_field(ex.parse("1/(x-0.3125)", ex.Slot.SOURCE_A), g, 0.0)
    assert "cell" in str(err.value)


def test_sample_stack_nonfinite_message_prints_plain_time():
    # the first offending time prints as a float, not as a numpy scalar repr
    g = build_grid(DomainSpec(((0.0, 1.0),)), 8)
    tree = ex.parse("1/(t-0.25) + 1/(x-0.3125)", ex.Slot.SOURCE_A)
    with pytest.raises(ex.NonFiniteValue) as err:
        ex.sample_stack(tree, g, np.array([0.0, 0.25]))
    assert str(err.value) == (f"expression '{ex.to_source(tree)}' evaluated to a "
                              f"non-finite value at t=0.0 -> cell index (2,)")


@pytest.mark.parametrize("src", ["1/(x-0.53125)", "t/(x-0.53125)"], ids=["no_t", "t"])
def test_sample_stack_nonfinite_message_names_first_time_and_cell(src):
    # without t the evaluation is one row broadcast to every time (stride 0);
    # the check reads that row and names the same first offending entry
    g = build_grid(DomainSpec(((0.0, 1.0),)), 16)
    tree = ex.parse(src, ex.Slot.SOURCE_A)
    with pytest.raises(ex.NonFiniteValue) as err:
        ex.sample_stack(tree, g, np.array([0.0, 0.5, 1.0]))
    assert str(err.value) == (f"expression '{ex.to_source(tree)}' evaluated to a "
                              f"non-finite value at t=0.0 -> cell index (8,)")


def _random_identifier(rng):
    letters = "abcdefghijklmnopqrstuvwxyz"
    name = "".join(rng.choice(list(letters)) for _ in range(rng.integers(1, 6)))
    return name


def test_slot_fuzzing_no_silent_acceptance():
    """500 random identifier injections must all be rejected."""
    rng = np.random.default_rng(7)
    reserved = set("txyuw") | set(ex.FUNCTIONS) | set(ex.CONSTANTS)
    templates = ["1 + {}", "{} * 2", "sin({})", "x - {}", "max({}, 1)"]
    slots = list(ex.Slot)
    rejected = 0
    trials = 0
    while trials < 500:
        name = _random_identifier(rng)
        if name in reserved:
            continue
        trials += 1
        template = templates[int(rng.integers(0, len(templates)))]
        slot = slots[int(rng.integers(0, len(slots)))]
        src = template.format(name)
        with pytest.raises(ex.ForbiddenVariable):
            ex.parse(src, slot)
        rejected += 1
    assert rejected == 500


def test_disallowed_known_variables_per_slot():
    for slot in ex.Slot:
        allowed = ex.ALLOWED_VARIABLES[slot]
        for var in set("txyuw") - allowed:
            with pytest.raises(ex.ForbiddenVariable):
                ex.parse(f"1 + {var}", slot)


def _expr_strategy(depth=0):
    leaf = st.one_of(
        st.floats(0.0, 100.0, allow_nan=False).map(ex.Num),
        st.sampled_from(["t", "x", "u", "w"]).map(ex.Var),
    )
    if depth >= 3:
        return leaf
    sub = st.deferred(lambda: _expr_strategy(depth + 1))
    return st.one_of(
        leaf,
        sub.map(ex.Neg),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: ex.BinOp(*t)),
        st.tuples(st.sampled_from(["exp", "sin", "cos", "tanh", "abs"]), sub).map(
            lambda t: ex.Call(t[0], (t[1],))
        ),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(
            lambda t: ex.Call(t[0], (t[1], t[2]))
        ),
    )


@settings(max_examples=50, deadline=None)
@given(_expr_strategy())
def test_print_parse_round_trip(tree):
    printed = ex.to_source(tree)
    reparsed = ex.parse(printed, ex.Slot.BETA)
    assert reparsed == tree
    assert ex.to_source(reparsed) == printed



def test_nesting_limit():
    # a tree of MAX_DEPTH levels parses and evaluates; one level more is rejected
    deepest = "-" * (ex.MAX_DEPTH - 1) + "w"
    assert ex.evaluate(ex.parse(deepest, ex.Slot.ALPHA), {"w": 1.0}) == (-1.0) ** (ex.MAX_DEPTH - 1)
    assert ex.evaluate(ex.parse(" + ".join(["w"] * ex.MAX_DEPTH), ex.Slot.ALPHA),
                       {"w": 1.0}) == ex.MAX_DEPTH
    for src in ("-" + deepest, " + ".join(["w"] * (ex.MAX_DEPTH + 1))):
        with pytest.raises(ex.ExprSyntaxError, match="nested deeper"):
            ex.parse(src, ex.Slot.ALPHA)
