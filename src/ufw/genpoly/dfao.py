"""Automatic functions via deterministic finite automata with output.

The automaton reads the base-a digits of n least-significant first (the
Σ λᵢ·bⁱ pairing aligns output index i with digit index i).
f(n) = Σᵢ λ(qᵢ, μᵢ)·bⁱ with q₀ = q_init and qᵢ₊₁ = τ(qᵢ, μᵢ).
"""

from ..record import Record
from .digits import _base_digits


class Dfao(Record):
    """states: number of states (0..states-1); init: initial state;
    tau/lam: transition and output tables indexed [state][digit];
    in_base a, out_base b."""

    _fields = ("states", "init", "tau", "lam", "in_base", "out_base")

    def __init__(self, states, init, tau, lam, in_base, out_base):
        # type(), not isinstance(): True and False are ints too, and a float
        # in lam would make dfao_eval return a float.  Base 1 or 0 has no
        # digit expansion: _base_digits would never end, or divide by zero
        if type(in_base) is not int or in_base < 2:
            raise ValueError("input base must be an integer ≥ 2")
        if type(out_base) is not int:
            raise ValueError("output base must be an integer")
        if type(states) is not int or type(init) is not int:
            raise ValueError("states and init must be integers")
        tau = tuple(tuple(row) for row in tau)
        lam = tuple(tuple(row) for row in lam)
        if len(tau) != states or len(lam) != states:
            raise ValueError("tau/lam must have one row per state")
        for row in tau:
            if len(row) != in_base or any(
                type(q) is not int or not 0 <= q < states for q in row
            ):
                raise ValueError("tau rows must map every digit to a state")
        for row in lam:
            if len(row) != in_base or any(type(v) is not int or v < 0 for v in row):
                raise ValueError("lam rows must be non-negative integers, one per digit")
        if not 0 <= init < states:
            raise ValueError("initial state out of range")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "in_base", in_base)
        object.__setattr__(self, "out_base", out_base)

    def to_json(self):
        return {
            "states": self.states,
            "init": self.init,
            "tau": [list(r) for r in self.tau],
            "lam": [list(r) for r in self.lam],
            "in_base": self.in_base,
            "out_base": self.out_base,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            obj["states"], obj["init"], obj["tau"], obj["lam"],
            obj["in_base"], obj["out_base"],
        )


def dfao_eval(m, n):
    """Run the automaton on the digits of n and collect Σ λᵢ·bⁱ."""
    if n < 0:
        raise ValueError("n must be non-negative")
    state = m.init
    total = 0
    power = 1
    for d in _base_digits(n, m.in_base):
        total += m.lam[state][d] * power
        state = m.tau[state][d]
        power *= m.out_base
    return total
