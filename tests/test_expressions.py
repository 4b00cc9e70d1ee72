"""Config expressions are trees of closures built by one checked walk
(config._closure): they give what CPython's compiled tree gives, bit for
bit, and nothing in src/wlab hands text to the interpreter."""
import ast
import copy
import glob
import os
import sys

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from wlab import config
from wlab.config import parse_scalar_function
from wlab.errors import ConfigError, NumericalError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "arctan",
             "arcsin", "arccos", "abs")
NAMES = {**{name: getattr(np, name) for name in FUNCTIONS}, "pi": np.pi}


def _reference(tree: ast.Expression):
    """How expressions ran before the closures: constants made floats, the
    tree compiled and run by eval with empty builtins."""
    tree = copy.deepcopy(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            node.value = float(node.value)
    code = compile(tree, "<expr>", "eval")
    return lambda u: eval(code, {"__builtins__": {}}, {**NAMES, "u": u})


def _leaf():
    return st.one_of(
        st.just("u"),
        st.sampled_from(["pi", "0", "2", "0.0", "1e308", "5e-324", "1e999",
                         "100000000000000000000"]),
        st.integers(0, 10 ** 6).map(str),
        st.floats(0.0, 1e3).map(repr))


def _node(children):
    """A unary or binary operation or a call of one of FUNCTIONS (mostly of
    one argument), parenthesized or not."""
    def wrap(text, parens):
        return f"({text})" if parens else text

    return st.one_of(
        st.tuples(st.sampled_from("-+"), children, st.booleans()).map(
            lambda t: t[0] + wrap(t[1], t[2])),
        st.tuples(children, st.sampled_from(["+", "-", "*", "/", "**"]), children,
                  st.booleans()).map(lambda t: f"{wrap(t[0], t[3])} {t[1]} {wrap(t[2], t[3])}"),
        st.tuples(st.sampled_from(FUNCTIONS),
                  st.lists(children, min_size=1, max_size=1) | st.lists(children, max_size=2)
                  ).map(lambda t: f"{t[0]}({', '.join(t[1])})"))


EXPRESSIONS = st.recursive(_leaf(), _node, max_leaves=12)
# each is in no grammar position of the language, so any tree holding one is outside it
OUTSIDE = ("(u.real)", "(x)", "(True)", "('1.0')", "(1j)", "(u[0])", "((lambda: u)())",
           "(u // 2)", "(u % 2)", "(sin(u, out=None))", "(sin(*[u]))", "(exp)", "(not u)",
           "(~u)", "(u < 1)", "(u if u else 2)", "(abs(x=u))", "(np.sin(u))", "(sum([u]))")


def _outcome(fn, u):
    """What fn does on a copy of u (a call may write into its argument):
    the value's type, dtype and bytes, or the exception's type and text."""
    u = u.copy() if isinstance(u, np.ndarray) else u
    with np.errstate(all="ignore"):
        try:
            value = fn(u)
        except Exception as exc:
            return "raises", type(exc), str(exc)
    return "value", type(value), np.asarray(value).dtype, np.asarray(value).tobytes()


STENCIL = np.add.outer(np.arange(-2, 3) * 1e-4, np.linspace(-1.5, 1.5, 9))


@seed(0)
@settings(max_examples=400, deadline=None, database=None)
@given(spec=EXPRESSIONS, u=st.floats(-3.0, 3.0), n=st.integers(1, 9))
def test_closures_match_the_compiled_tree_bit_for_bit(spec, u, n):
    """On a float, a 1-d array and a (5, n) stencil of u, the closures and
    the compiled tree give values of the same type, dtype and bytes, or
    raise the same exception with the same text."""
    tree = ast.parse(spec, mode="eval")
    too_big = []
    root = config._closure(tree.body, too_big)
    assert root is not None and too_big == []
    reference = _reference(tree)
    for arg in (u, 0.5, np.linspace(-2.0, 2.0, n), STENCIL[:, :n]):
        assert _outcome(root, arg) == _outcome(reference, arg), (spec, arg)


@seed(0)
@settings(max_examples=200, deadline=None, database=None)
@given(spec=EXPRESSIONS, bad=st.sampled_from(OUTSIDE), data=st.data())
def test_trees_outside_the_grammar_come_back_none(spec, bad, data):
    """One node outside the grammar, put in place of any leaf (a number, u
    or pi), makes the whole tree come back None."""
    nodes = list(ast.walk(ast.parse(spec, mode="eval")))
    callees = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    leaves = [i for i, node in enumerate(nodes)
              if isinstance(node, (ast.Constant, ast.Name)) and id(node) not in callees]
    k = data.draw(st.sampled_from(leaves or [1]))  # 1: the body, as in "sin()"
    tree = ast.parse(spec, mode="eval")
    target, replacement = list(ast.walk(tree))[k], ast.parse(bad, mode="eval").body

    class Swap(ast.NodeTransformer):
        def visit(self, node):
            return replacement if node is target else super().visit(node)

    tree = Swap().visit(tree)
    assert config._closure(tree.body, []) is None, ast.unparse(tree)


def _src_nodes():
    """(file name, node) of every AST node of every src/wlab module."""
    for path in sorted(glob.glob(os.path.join(SRC, "wlab", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        yield from ((os.path.basename(path), node) for node in ast.walk(tree))


def test_no_interpreter_in_src():
    """No call named eval, exec or compile is left in src/wlab, so no
    config text can reach the interpreter."""
    calls = []
    for name, node in _src_nodes():
        if isinstance(node, ast.Call):
            func = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if func in ("eval", "exec", "compile"):
                calls.append(f"{name}:{node.lineno}: {func}")
    assert calls == []


def test_no_scipy_in_src():
    """No module of src/wlab imports scipy, at its top or in a function:
    numpy is the runtime's one dependency."""
    imports = []
    for name, node in _src_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        imports += [f"{name}:{node.lineno}: {m}" for m in modules if m.split(".")[0] == "scipy"]
    assert imports == []


def test_call_stops_at_first_argument_outside_grammar():
    """A call's arguments are walked up to the first one outside the grammar:
    a deep argument after it is never walked, so the expression is reported
    as not arithmetic, not as too deep for the walk."""
    with pytest.raises(ConfigError, match=r"is not arithmetic in u \(numbers"):
        parse_scalar_function("sin(u.real, " + "-" * 2000 + "u)", "params.a")


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_tree_too_deep_for_a_deeper_call_is_numerical_error():
    """A closure tree recurses one frame per level.  A unary chain that the
    walk takes here fails, called 100 frames deeper, as a NumericalError
    that names the expression, not as a RecursionError."""
    levels = sys.getrecursionlimit() - _stack_depth() - 40
    fn = parse_scalar_function("-" * levels + "u", "params.r")
    assert fn(0.5) == (0.5 if levels % 2 == 0 else -0.5)

    def deeper(k):
        return fn(0.5) if k == 0 else deeper(k - 1)

    with pytest.raises(NumericalError, match=r"^params\.r: expression '-{60}'\.\.\. "
                                             rf"\({levels + 1} characters\) nests too deeply$"):
        deeper(100)
