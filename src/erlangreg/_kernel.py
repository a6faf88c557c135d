"""Generated per-sample kernels: one cascade step and its readout, unrolled.

One sample through the estimator or a detector is a few dozen
multiply-adds on a handful of states; in Python, the loops, calls, list
traffic and type dispatch around them cost several times more than the
arithmetic.  For one shape (decay, cascade orders and readout rows) this
module writes a straight-line kernel factory, compiles it once and returns

    make(w1, w2, x0, n) -> (step, read, export)

or, for a detector, make(w1, w2, x0, n, marker).  make moves one stream's
state into the closure cells of three new functions: each cascade state is
a cell of its own, as are the stream's first sample x0, its sample counter
n and a detector's run marker.  step(x) converts x with
float(), raises ValueError for a NaN or infinite sample before it touches
a cell, steps both cascades by d = x - x0 as an unrolled running sum,
advances n and returns the readout; read() returns the readout without
stepping (a stream's first sample); export() returns (w1, w2, n) as new
float tuples and the counter.  While a stream is fed one sample at a time
its state lives in those cells only, so no list is built, unpacked or
stored per sample.  The owner (see estimator._Stream) makes step its
update, so one sample is one Python call, and reads the cells with
export() when its state is read; the cells stay live.

The arithmetic and its order are those of a plain loop: state i becomes
p * (w_0 + ... + w_i) + d, the partial sum carried from state to state,
and a row reads as r_0 w_0 + r_1 w_1 + ..., added left to right, except
that a term whose entry is exactly 0.0 is left out (a row with none left
reads 0.0).  Rows have such entries: coefficient row i of a filter is
zero past state kappa + i.  A filter's rows read the leading cells of the
cascades, which may be longer than its own; the one padded row is the
change pair's difference row, the fast filter's value row padded with
zeros less the slow filter's.  A product with a zero entry is a zero,
and adding a zero changes no sum but a zero's sign, so the kernel reads
what a loop that starts its sums from 0.0 and multiplies every entry
reads, == for ==, with two exceptions: the sign of a zero, and a state
that has overflowed to inf (a power state does once |x - x0| passes
about 1.3e154), where the loop's 0 * inf is NaN and the kernel reads the
sum of the other terms, inf or finite.

A detector's readout calls its run marker's update only for a sample that
could change the marker: one whose Z passes a bound (the threshold, or
for a two-sided marker its negative) or that arrives while a run is open.
On any other sample update would find no exceedance and no run to close,
and do nothing, so events are those of calling it on every sample, for
any threshold.

The source text is built from indices and fixed operators only.  Every
number (the decay, the row entries, the residual masses, the noise gains,
the variance floor, the marker's bounds and the counter's increment) and
every object the readout calls is a parameter of the factory, bound when
it is called, or, for the one object a stream owns, its run marker, of
make; so the kernel reads them from closure cells and no float and no
outside text is ever compiled.  The sample check's isfinite and its error,
the same for every kernel, are globals of the compiled code.  As no
factory holds a stream's own object, factories are cached: the
estimator's by its realization and frame, a detector's by the numbers of
its readout, so a copied, pickled or second identical detector compiles
nothing.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

__all__ = ["estimator_kernel", "detector_kernel"]


def _not_finite(n: int, x: float) -> ValueError:
    """The error for sample n, whose value x is NaN or infinite."""
    return ValueError(f"sample {n} is not finite: {x!r}")


class _Source:
    """Source lines of one kernel factory and the values of its parameters."""

    def __init__(self, p: float, n1: int, n2: int):
        self.parameters = {"sqrt": math.sqrt, "one": 1}
        self.owned: list[str] = []  # parameters of make, for the stream's own objects
        self.n1, self.n2 = n1, n2
        self.p = self.const(p)
        self.readout: list[str] = []

    def bind(self, name: str, value) -> str:
        """Name of a factory parameter bound to value."""
        self.parameters[name] = value
        return name

    def own(self, name: str) -> str:
        """Name of a parameter of make, for an object of the stream's own."""
        self.owned.append(name)
        return name

    def const(self, value) -> str:
        """Name of a factory parameter bound to the float value."""
        return self.bind(f"k{len(self.parameters)}", float(value))

    def dot(self, row, state: str) -> str:
        """Expression for row @ state, with state held in cells state0, state1, ...

        Terms whose entry is exactly 0.0 are left out; a row with none left
        reads 0.0.
        """
        terms = [f"{self.const(r)} * {state}{j}" for j, r in enumerate(row) if r != 0.0]
        return " + ".join(terms) or "0.0"

    def let(self, name: str, expression: str) -> None:
        self.readout.append(f"{name} = {expression}")

    def noise_variance(self, coeff_rows, power_row, residual_mass) -> str:
        """Lines reading a filter's noise variance; returns its expression.

        The arguments are _noise_rows of the filter.  The residual power
        (filtered power less the power of the orthonormal coefficients),
        clamped at zero as max(r, 0.0) is, over the residual mass, read
        from the filter's own leading states of the cascades.
        """
        betas = []
        for i, row in enumerate(coeff_rows):
            self.let(f"b{i}", self.dot(row, "a"))
            betas.append(f"b{i} * b{i}")
        power = self.dot(power_row, "q")
        self.let("r", f"{power} - ({' + '.join(betas)})")
        return f"(0.0 if r < 0.0 else r) / {self.const(residual_mass)}"

    def build(self) -> Callable:
        """Compile the factory; the readout lines end in their return."""
        a = [f"a{j}" for j in range(self.n1)]
        q = [f"q{j}" for j in range(self.n2)]
        cells = ", ".join(a + q + ["n"])
        advance = ["x = float(x)",
                   "if not isfinite(x):",
                   "    raise not_finite(n + one, x)",
                   "d = x - x0", "dd = d * d"]
        for names, feed in ((a, "d"), (q, "dd")):
            advance.append(f"s = {names[0]}")
            for j, name in enumerate(names):
                if j:
                    advance.append(f"s = s + {name}")
                advance.append(f"{name} = {self.p} * s + {feed}")
        advance.append("n = n + one")
        body = "\n".join(
            [f"def kernel({', '.join(self.parameters)}):",
             f"    def make({', '.join(['w1', 'w2', 'x0', 'n', *self.owned])}):",
             f"        {', '.join(a)}, = w1",
             f"        {', '.join(q)}, = w2",
             "        def step(x):",
             f"            nonlocal {cells}"]
            + [f"            {line}" for line in advance + self.readout]
            + ["        def read():"]
            + [f"            {line}" for line in self.readout]
            + ["        def export():",
               f"            return ({', '.join(a)},), ({', '.join(q)},), n",
               "        return step, read, export",
               "    return make"]
        )
        namespace = {"isfinite": math.isfinite, "not_finite": _not_finite}
        exec(compile(body, "<erlangreg sample kernel>", "exec"), namespace)
        return namespace["kernel"](**self.parameters)


@lru_cache(maxsize=64)
def estimator_kernel(realization, frame) -> Callable:
    """Kernel factory of the estimator's frame on realization's cascades.

    The readout is frame((n, estimates, sigma_eps2, vrf)): estimates is a
    tuple of floats whose level has x0 added back, vrf the realization's
    noise gain matrix, and frame the estimator's frame constructor.  Cached
    by identity: the last 64 pairs stay alive until evicted or process exit.
    """
    spec = realization.spec
    src = _Source(spec.weight.p, spec.n_first_states, spec.n_second_states)
    src.let("v", src.noise_variance(*_noise_rows(realization)))
    rows = [src.dot(row, "a") for row in realization.state_output.tolist()]
    rows[0] += " + x0"
    src.readout.append(f"return {src.bind('frame', frame)}(("
                       f"n, ({', '.join(rows)},), v, {src.bind('vrf', realization.vrf)}))")
    return src.build()


def _noise_rows(realization):
    """What a filter's noise variance reads: its coefficient rows, power row
    and residual mass, as nested tuples of floats."""
    return (tuple(map(tuple, realization.coeff_output.tolist())),
            tuple(realization.power_output.tolist()), realization.residual_mass)


def detector_kernel(stream, value_row, noise_terms, floor: float, threshold: float,
                    two_sided: bool) -> Callable:
    """Kernel factory of a detector's statistic on the cascades of realization stream.

    Z is value_row @ w1 over the square root of the sum, over noise_terms
    (filter, gain), of gain times the filter's noise variance, read from
    the filter's leading cells, and 0.0 where that sum is below floor.
    The readout passes (n, z) to the update of make's run marker, which
    records the events, when z passes threshold or, if two_sided, its
    negative, or a run is open, and returns z.

    Cached by the numbers of the readout, the last 64 kept: numbers that
    compare equal make kernels that read equal Z and events.
    """
    spec = stream.spec
    noise = tuple((_noise_rows(realization), float(gain)) for realization, gain in noise_terms)
    return _detector_kernel(spec.weight.p, spec.n_first_states, spec.n_second_states,
                            tuple(value_row.tolist()), noise, floor, threshold, two_sided)


@lru_cache(maxsize=64)
def _detector_kernel(p, n1, n2, value_row, noise, floor, threshold, two_sided):
    src = _Source(p, n1, n2)
    for i, (rows, gain) in enumerate(noise):
        variance = src.noise_variance(*rows)
        src.let("t", f"{'t + ' if i else ''}{src.const(gain)} * ({variance})")
    value = src.dot(value_row, "a")
    src.let("z", f"0.0 if t < {src.const(floor)} else ({value}) / sqrt(t)")
    hi = src.const(threshold)
    lo = src.const(-threshold if two_sided else -math.inf)
    run = src.own("marker")
    src.readout += [f"if z > {hi} or z < {lo} or {run}._sign:",
                    f"    {run}.update(n, z)",
                    "return z"]
    return src.build()
