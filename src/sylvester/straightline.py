"""Straight-line numpy programs traced from arithmetic code.

Code written for plain numbers (+, -, * and / on values and ints) is run
once on `Traced` values, which record each operation in a `Trace` instead
of doing it.  `Trace.compile` turns the record into a function of numpy
arrays that does the same operations on the same operands in the same
order, so its result is the traced code's to the bit, but

* an operation met again on the same operands is done once (addition and
  multiplication are commutative to the bit, so a + b meets b + a),
* multiplying by 1, dividing by 1 and subtracting 0 are not done, since
  they return their operand to the bit (adding 0 is done: it turns -0.0
  into 0.0),
* an array is dropped after its last use, or overwritten by the result of
  that use when both have the full shape.

numpy is imported only when a trace is compiled.
"""

from __future__ import annotations

#: The int operand that leaves the other one unchanged, by operation.
_NEUTRAL = {"multiply": 1, "divide": 1, "subtract": 0}


class Traced:
    """A value in a `Trace`: arithmetic on it is recorded, not done."""

    __slots__ = ("trace", "slot")

    def __init__(self, trace, slot):
        self.trace, self.slot = trace, slot

    def __add__(self, other):
        return self.trace.op("add", self, other)

    def __radd__(self, other):
        return self.trace.op("add", other, self)

    def __sub__(self, other):
        return self.trace.op("subtract", self, other)

    def __mul__(self, other):
        return self.trace.op("multiply", self, other)

    def __rmul__(self, other):
        return self.trace.op("multiply", other, self)

    def __truediv__(self, other):
        return self.trace.op("divide", self, other)


class Trace:
    """A record of operations on numbered slots: the inputs, the int
    constants and each distinct operation's result."""

    def __init__(self):
        self.steps = []  # (numpy ufunc name, operand slot, operand slot, slot)
        self.results = {}  # (name, operand slots) -> result slot
        self.constants = {}  # int -> slot
        self.full = set()  # slots of arrays of the full shape
        self.size = 0

    def _new_slot(self):
        self.size += 1
        return self.size - 1

    def input(self, full):
        """A new input.  ``full`` marks an array whose shape is that of
        every result it takes part in; a result with a full operand is full
        too."""
        value = Traced(self, self._new_slot())
        if full:
            self.full.add(value.slot)
        return value

    def _slot(self, value):
        if isinstance(value, Traced):
            return value.slot
        if value not in self.constants:
            self.constants[value] = self._new_slot()
        return self.constants[value]

    def op(self, name, a, b):
        if not isinstance(b, Traced) and _NEUTRAL.get(name) == b:
            return a
        if not isinstance(a, Traced) and name == "multiply" and a == 1:
            return b
        operands = (self._slot(a), self._slot(b))
        if name in ("add", "multiply"):
            operands = tuple(sorted(operands))
        key = (name, *operands)
        if key not in self.results:
            slot = self.results[key] = self._new_slot()
            self.steps.append((*key, slot))
            if not self.full.isdisjoint(operands):
                self.full.add(slot)
        return Traced(self, self.results[key])

    def compile(self, inputs, result):
        """A function of one array per traced input, passed as sequences
        whose concatenation follows ``inputs``, that replays the steps and
        returns the array of ``result``.  Input arrays are not written."""
        import numpy as np

        last_use = {}
        for k, (_, a, b, _) in enumerate(self.steps):
            last_use[a] = last_use[b] = k
        made = {slot for *_, slot in self.steps}
        home = list(range(self.size))  # slot -> index of its value in run
        program = []
        for k, (name, a, b, slot) in enumerate(self.steps):
            dying = [v for v in dict.fromkeys((a, b)) if last_use[v] == k]
            reuse = next((v for v in dying
                          if v in made and v in self.full), None)
            if reuse is not None:
                home[slot] = home[reuse]
            program.append((getattr(np, name), home[a], home[b], home[slot],
                            tuple(home[v] for v in dying if v != reuse)))
        constants = tuple((slot, c) for c, slot in self.constants.items())
        inputs = tuple(v.slot for v in inputs)
        size, result = self.size, home[result.slot]

        def run(*groups):
            values = [None] * size
            for slot, c in constants:
                values[slot] = c
            for slot, array in zip(inputs, (a for g in groups for a in g)):
                values[slot] = array
            for ufunc, a, b, slot, dead in program:
                # A fresh slot holds None, so out=None makes a new array.
                values[slot] = ufunc(values[a], values[b], out=values[slot])
                for d in dead:
                    values[d] = None
            return values[result]

        return run
