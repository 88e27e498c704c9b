"""Straight-line float code from formulas, and the package's one arithmetic
dispatch.

A formula is written once with operators and this module's sin, cos, sqrt,
exp and log, which follow their operand's type: numpy's function for an
ndarray, ``math``'s for anything else (a float, a numpy scalar), so a float
gives the bits of the formula evaluated with ``math``.  (numpy's arithmetic
turns a 0-d array into numpy scalars, which then take ``math``.)  On ``Var``
inputs each operation instead appends one assignment to the inputs'
``Tape``, in the order the formula performs it, and returns a ``Var`` naming
the result.  Constants (floats, or any operand that is not a ``Var``) are
not written into the text: each occurrence becomes an argument c0, c1, ...
of the generated code, so the text depends on which operations a formula
performs, not on its parameters.  Constants combined with constants are
computed while tracing, by Python itself, which gives the same IEEE result
as computing them in the generated code.

``trace(body, n)`` records ``body`` on n inputs x0 .. x{n-1}; its caller
writes the lines into a function and compiles it (``dop853.compiled``).
It also names the inputs that the lines and outputs read, so that a caller
need not form an input that the code never reads.
Recorded are +, -, *, /, ** and unary -, and sin, cos, sqrt, exp and log,
which the generated code takes from ``math``.  A value cannot be compared,
branched on or converted while it is recorded (TypeError); ``call`` turns
such a callable into one call of itself, on a float, in the generated code,
and records each callable once per input.
"""
from __future__ import annotations

import math
import re

import numpy as np

__all__ = ["Var", "Tape", "trace", "call", "sin", "cos", "sqrt", "exp", "log"]


class Tape:
    """The assignments recorded so far, and the constants they read."""

    def __init__(self):
        self.lines = []
        self.constants = []
        # id(fn), input name -> (fn, the value of call(fn, input))
        self.calls = {}

    def operand(self, value) -> str:
        """The name of ``value`` in the source: a ``Var``'s own, or a new
        constant's."""
        if isinstance(value, Var):
            return value.name
        self.constants.append(value)
        return f"c{len(self.constants) - 1}"

    def assign(self, expr: str) -> "Var":
        var = Var(self, f"v{len(self.lines)}")
        self.lines.append(f"{var.name} = {expr}")
        return var


def _refuse(*_):
    raise TypeError("a recorded value cannot be compared, branched on or converted")


def _operators(symbol: str):
    """The operator ``symbol`` with a ``Var`` on its left, and on its right."""
    def op(a, b):
        return a.tape.assign(f"{a.name} {symbol} {a.tape.operand(b)}")

    def reflected(a, b):
        return a.tape.assign(f"{a.tape.operand(b)} {symbol} {a.name}")
    return op, reflected


class Var:
    """A recorded float: the name of the local that will hold it."""

    __slots__ = ("tape", "name")
    # numpy scalars defer to the reflected operators below
    __array_ufunc__ = None
    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = __bool__ = _refuse
    __hash__ = None

    __add__, __radd__ = _operators("+")
    __sub__, __rsub__ = _operators("-")
    __mul__, __rmul__ = _operators("*")
    __truediv__, __rtruediv__ = _operators("/")
    __pow__, __rpow__ = _operators("**")

    def __init__(self, tape: Tape, name: str):
        self.tape, self.name = tape, name

    def __neg__(self):
        return self.tape.assign(f"-{self.name}")


def _function(name: str):
    scalar, array = getattr(math, name), getattr(np, name)

    def apply(x):
        if isinstance(x, Var):
            return x.tape.assign(f"{name}({x.name})")
        return array(x) if isinstance(x, np.ndarray) else scalar(x)
    apply.__name__ = name
    return apply


sin, cos, sqrt, exp, log = map(_function, ("sin", "cos", "sqrt", "exp", "log"))


def trace(body, n: int):
    """Run ``body`` on the inputs [x0, ..., x{n-1}]: the recorded lines, the
    source of each value ``body`` returns, the constants' values, and the
    indices of the inputs that the lines and returned values read, in
    increasing order."""
    tape = Tape()
    outputs = [tape.operand(v) for v in body([Var(tape, f"x{i}") for i in range(n)])]
    read = {int(i) for i in re.findall(r"\bx(\d+)\b", "\n".join(tape.lines + outputs))}
    return tape.lines, outputs, tape.constants, tuple(sorted(read))


def call(fn, x):
    """``fn(x)``: on a float, the value; on a ``Var``, recorded where ``fn``
    is a formula.  Where it raises TypeError (it compares or converts ``x``,
    as a table lookup or a root finder does), its lines are dropped and the
    generated code calls ``fn`` once instead, on a float.  A tape records
    each (``fn``, ``x``) once: a repeated call returns the first one's
    value."""
    if not isinstance(x, Var):
        return fn(x)
    tape = x.tape
    key = (id(fn), x.name)
    if key not in tape.calls:
        lines, constants, calls = len(tape.lines), len(tape.constants), dict(tape.calls)
        try:
            value = fn(x)
        except TypeError:
            del tape.lines[lines:], tape.constants[constants:]
            tape.calls = calls
            value = tape.assign(f"{tape.operand(fn)}({x.name})")
        tape.calls[key] = fn, value
    return tape.calls[key][1]
