"""Sample helpers shared by the test modules."""

import inspect
import math
import operator
import random
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from wkit.numerics import _det2, _two_prod, split
from wkit.sweeps import _EXACT_MAX, pair_stacks
from wkit.vectors import _check_pair, _item, _plane, _scale
from wkit.weitzenboeck import Triangle


def random_pairs(count, seed=0):
    """The float sweep sample as a list of (u, v) pairs in sample order:
    pair j of a chunk is row j // 7 of the stacks of dimension 2 + j % 7.
    Every chunk holds a pair of dimension 2, so its stack starts the chunk."""
    chunks = []
    for U, V in pair_stacks(count, seed):
        if U.shape[1] == 2:
            chunks.append([])
        chunks[-1].append((U, V))
    pairs = []
    for stacks in chunks:
        for j in range(sum(len(u) for u, _ in stacks)):
            u, v = stacks[j % len(stacks)]
            pairs.append((u[j // len(stacks)], v[j // len(stacks)]))
    return pairs


def near_collinear_pairs(count, seed=1):
    """Pairs v = lam*u + eps*noise of dimension 2..8, eps alternating 1e-6 and 1e-9."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = 2 + i % 7
        u = rng.uniform(-10, 10, d)
        eps = (1e-6, 1e-9)[i % 2]
        yield u, rng.uniform(-2, 2) * u + eps * rng.standard_normal(d)


def conormal(u, v):
    """``(c, degenerate)``: the quarter turn c of v in span(u, v) from ``_plane``,
    scaled back by 2**b, and its collinear flag; a Python bool for one pair."""
    _, c, degenerate, _, b = _plane(*_check_pair(u, v))
    return _scale(c, b[..., None]), _item(degenerate)


def rational_pair_row(rng, max_magnitude=None):
    """The eight integers of one planar pair from the ``random.Random`` rng,
    four numerators then four denominators. By default the exact sweep's,
    mapped without numpy: the eight bytes of one ``randbytes(8)``, the
    numerators as signed bytes, in [-M, M - 1], and the denominators as their
    low seven bits plus one, in [1, M], for M = _EXACT_MAX = 2**7. With a
    max_magnitude, numerators in [-max_magnitude, max_magnitude] and
    denominators in [1, max_magnitude] from ``randint``."""
    if max_magnitude is None:
        data = rng.randbytes(8)
        nums = [int.from_bytes(data[k:k + 1], "little", signed=True) for k in range(4)]
        return nums + [data[k] % _EXACT_MAX + 1 for k in range(4, 8)]
    m = max_magnitude
    return [rng.randint(-m, m) for _ in range(4)] + [rng.randint(1, m) for _ in range(4)]


def rational_pair_rows(count, seed=0, max_magnitude=None):
    """Rows of eight Python ints; by default the exact sweep's sample."""
    rng = random.Random(seed)
    return [rational_pair_row(rng, max_magnitude) for _ in range(count)]


def random_rational_pairs(count, seed=0, max_magnitude=None):
    """``rational_pair_rows`` as (u, v) pairs of Fractions."""
    pairs = []
    for x0, y0, x1, y1, a0, b0, a1, b1 in rational_pair_rows(count, seed, max_magnitude):
        pairs.append(((Fraction(x0, a0), Fraction(y0, b0)), (Fraction(x1, a1), Fraction(y1, b1))))
    return pairs


def random_triangles(count, seed=0, low=0.1, high=10.0):
    """Deterministic valid triangles with sides uniform in [low, high]."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a, b, c = rng.uniform(low, high, 3)
        if a + b > c and b + c > a and c + a > b:
            out.append(Triangle(float(a), float(b), float(c)))
    return out


#: Integer side triples: four fixed shapes and any valid triangle of sides <= 1000.
INTEGER_TRIANGLES = st.one_of(
    st.sampled_from([(3, 4, 5), (2, 2, 3), (1, 1, 1), (7, 7, 7)]),
    st.tuples(*[st.integers(1, 1000)] * 3).filter(lambda t: 2 * max(t) < sum(t)),
)


def two_prod(a, b):
    """Error-free product (p, e) of the kernel: p + e = a*b exactly."""
    return _two_prod(a, *split(a), b, *split(b))


def det2(a, b, c, d):
    """Compensated a*d - b*c, with the kernel's bits for the kernel's operands."""
    return _det2(*((x, *split(x)) for x in (a, b, c, d)))


def helix_position(a, b, t):
    """Point of the unit-speed helix (a cos wt, a sin wt, b w t), w = 1/sqrt(a^2 + b^2);
    b = 0 gives the circle of radius a."""
    w = 1.0 / math.hypot(a, b)
    return np.array([a * math.cos(w * t), a * math.sin(w * t), b * w * t])


def power_of_two_range(values):
    """(lo, hi): every k for which 2**k times each nonzero integer of values
    is an exact, finite, nonzero double, subnormals included."""
    return -1074, 1024 - math.frexp(max(map(abs, values)))[1]


class Poly:
    """A polynomial with integer coefficients in n symbols: a dict from
    exponent tuple to nonzero int. +, - and * combine it with ints and
    polynomials, and ** raises it to a small int power: enough to run a
    function written with those operators, such as
    ``weitzenboeck._identity_terms``, on symbols and expand what it returns."""

    def __init__(self, terms, n):
        self.n = n
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def symbols(cls, n):
        return [cls({tuple(int(i == j) for j in range(n)): 1}, n) for i in range(n)]

    def _lift(self, other):
        return other if isinstance(other, Poly) else Poly({(0,) * self.n: other}, self.n)

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in self._lift(other).terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(terms, self.n)

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()}, self.n)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in self._lift(other).terms.items():
                e = tuple(map(operator.add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(terms, self.n)

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, k):
        result = self._lift(1)
        for _ in range(k):
            result = result * self
        return result


def mutated(func, old, new):
    """A mutant of the module-level function ``func``: its source with the
    one occurrence of ``old`` replaced by ``new``, compiled in a copy of its
    module's namespace, for a test to show that a check sees the change."""
    source = inspect.getsource(func)
    assert source.count(old) == 1, f"{old!r} is not once in {func.__name__}"
    scope = dict(func.__globals__)
    exec(source.replace(old, new), scope)
    return scope[func.__name__]
