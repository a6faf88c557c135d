"""Generated per-sample kernels: one cascade step and its readouts, unrolled.

One sample through the estimator or a detector is a few dozen
multiply-adds on a handful of states; in Python, the loops, calls and type
dispatch around them cost several times more than the arithmetic.  For one
shape (decay, cascade orders and readout rows) this module writes a
straight-line function that unpacks both state lists into locals, steps
both cascades as an unrolled running sum, evaluates every readout row as
explicit multiply-adds, and returns the new state lists with the readout.
It compiles that source once, together with a read-only twin that reads
the states without stepping them; the owner of a stream builds its kernel
on the first per-sample call and keeps it.

The arithmetic and its order are those of a plain loop: state i becomes
p * (w_0 + ... + w_i) + d, the partial sum carried from state to state,
and a row reads as r_0 w_0 + r_1 w_1 + ..., added left to right.  A loop
that starts its sum from 0.0 gets the same value with one more add per
row; the two differ only in the sign of a zero read by a row of all
negative entries from all-zero states.

The source text is built from indices and fixed operators only.  Every
number (the decay, the row entries, the residual masses, the noise gains
and the variance floor) is bound by name in the namespace the code runs
in, so no float and no outside text is ever compiled.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

__all__ = ["SampleKernel", "estimator_kernel", "detector_kernel"]


class SampleKernel(NamedTuple):
    """A compiled cascade step with its readouts, and the readouts alone."""

    step: Callable   # (w1, w2, d, x0) -> (w1, w2, readout)
    read: Callable   # (w1, w2, x0) -> readout


class _Source:
    """Source lines of one kernel and the namespace holding its constants."""

    def __init__(self, p: float, n1: int, n2: int):
        self.namespace = {"sqrt": math.sqrt}
        self.n1, self.n2 = n1, n2
        self.p = self.const(p)
        self.readout: list[str] = []

    def const(self, value) -> str:
        """Name bound to the float value in the kernel's namespace."""
        name = f"k{len(self.namespace)}"
        self.namespace[name] = float(value)
        return name

    def dot(self, row, state: str) -> str:
        """Expression for row @ state, with state held in locals state0, state1, ..."""
        return " + ".join(f"{self.const(r)} * {state}{j}" for j, r in enumerate(row))

    def let(self, name: str, expression: str) -> None:
        self.readout.append(f"{name} = {expression}")

    def noise_variance(self, coeff_rows, power_row, residual_mass) -> str:
        """Lines reading one filter's noise variance; returns its expression.

        The residual power (filtered power less the power of the orthonormal
        coefficients), clamped at zero as max(r, 0.0) is, over the residual
        mass.
        """
        betas = []
        for i, row in enumerate(coeff_rows):
            self.let(f"b{i}", self.dot(row, "a"))
            betas.append(f"b{i} * b{i}")
        self.let("r", f"{self.dot(power_row, 'q')} - ({' + '.join(betas)})")
        return f"(0.0 if r < 0.0 else r) / {self.const(residual_mass)}"

    def build(self, result: str) -> SampleKernel:
        """Compile step(w1, w2, d, x0) and read(w1, w2, x0); both return result."""
        a = [f"a{j}" for j in range(self.n1)]
        q = [f"q{j}" for j in range(self.n2)]
        unpack = [f"{', '.join(a)}, = w1", f"{', '.join(q)}, = w2"]
        step = []
        for names, feed in ((a, "d"), (q, "dd")):
            step.append(f"s = {names[0]}")
            for j, name in enumerate(names):
                if j:
                    step.append(f"s = s + {name}")
                step.append(f"{name} = {self.p} * s + {feed}")
        body = "\n".join(
            ["def step(w1, w2, d, x0):"]
            + [f"    {line}" for line in unpack + ["dd = d * d"] + step + self.readout]
            + [f"    return [{', '.join(a)}], [{', '.join(q)}], {result}"]
            + ["def read(w1, w2, x0):"]
            + [f"    {line}" for line in unpack + self.readout]
            + [f"    return {result}"]
        )
        exec(compile(body, "<erlangreg sample kernel>", "exec"), self.namespace)
        return SampleKernel(self.namespace["step"], self.namespace["read"])


def estimator_kernel(realization) -> SampleKernel:
    """Kernel of the estimator's frame on realization's cascades.

    The readout is (estimates, sigma_eps2): estimates is a tuple of floats
    whose level has x0 added back.
    """
    spec = realization.spec
    src = _Source(spec.weight.p, spec.n_first_states, spec.n_second_states)
    src.let("v", src.noise_variance(
        realization.coeff_output.tolist(),
        realization.power_output.tolist(),
        realization.residual_mass,
    ))
    rows = [src.dot(row, "a") for row in realization.state_output.tolist()]
    rows[0] += " + x0"
    return src.build(f"(({', '.join(rows)},), v)")


def detector_kernel(stream, value_row, noise_terms, floor: float) -> SampleKernel:
    """Kernel of a detector's statistic on the cascades of realization stream.

    Z is value_row @ w1 over the square root of the sum, over noise_terms
    (coeff, power, residual_mass, vrf_ii), of vrf_ii times each filter's
    noise variance, and 0.0 where that sum is below floor.  The readout
    is z.
    """
    spec = stream.spec
    src = _Source(spec.weight.p, spec.n_first_states, spec.n_second_states)
    for i, (coeff, power, residual_mass, vrf_ii) in enumerate(noise_terms):
        variance = src.noise_variance(coeff.tolist(), power.tolist(), residual_mass)
        src.let("t", f"{'t + ' if i else ''}{src.const(vrf_ii)} * ({variance})")
    value = src.dot(value_row.tolist(), "a")
    src.let("z", f"0.0 if t < {src.const(floor)} else ({value}) / sqrt(t)")
    return src.build("z")
