"""A 60-digit reference for the asymptotic rate formulas.

Only the standard library's `decimal`, at 60 significant digits; log2 x is
ln x / ln 2. A float input is read as its exact binary value, so a float
result can be measured in ulp of the true value of its formula rather than
against another float path. Vectors and spectra are lists of (value,
multiplicity) pairs, the form every depolarizing quantity takes.
"""

import functools
from decimal import Context, Decimal, localcontext

PRECISION = 60
# bracket width at which `critical_q` stops: far below a float's spacing
# near any root (2**-53 at 0.5), at a cost that keeps the tests quick
ROOT_WIDTH = Decimal("1e-25")


def _exact(fn):
    """Run fn under a 60-digit context, whatever the caller's context is."""
    @functools.wraps(fn)
    def wrapper(*args):
        with localcontext(Context(prec=PRECISION)):
            return fn(*args)
    return wrapper


LN2 = Decimal(2).ln(Context(prec=PRECISION))


@_exact
def log2(x: Decimal) -> Decimal:
    return x.ln() / LN2


@_exact
def entropy(weights: list[tuple[Decimal, int]]) -> Decimal:
    """H = -sum m p log2 p over (p, m) pairs, with 0 log 0 = 0."""
    return -sum((m * p * log2(p) for p, m in weights if p > 0), Decimal(0))


@_exact
def depolarizing_vector(d: int, q) -> list[tuple[Decimal, int]]:
    """(1 - Q, Q/(d-1), ..., Q/(d-1)) as (value, multiplicity) pairs."""
    q = Decimal(q)
    return [(1 - q, 1), (q / (d - 1), d - 1)]


@_exact
def depolarizing_spectrum(d: int, q) -> list[tuple[Decimal, int]]:
    """The Bell spectrum that the (d+1)-basis statistics reconstruct from
    the depolarizing vector c in every basis, lam[j, k] = (sum_s c[(s j - k)
    mod d] + c[j] - 1)/d: lam[0, 0], lam[0, k != 0] and the d(d-1) entries
    of rows j >= 1, which the sum over s makes uniform."""
    (c0, _), (c1, _) = depolarizing_vector(d, q)
    total = c0 + (d - 1) * c1
    return [((d * c0 + c0 - 1) / d, 1), ((d * c1 + c0 - 1) / d, d - 1), ((total + c1 - 1) / d, d * (d - 1))]


def _entropies(family: str, d: int, q) -> tuple[Decimal, Decimal]:
    """H(q) and I_E(Q): H(q) for two-basis, H(lam) - H(q) for dplus1."""
    h_q = entropy(depolarizing_vector(d, q))
    return h_q, h_q if family == "two-basis" else entropy(depolarizing_spectrum(d, q)) - h_q


@_exact
def ie(family: str, d: int, q) -> Decimal:
    """I_E(Q) of the family on the depolarizing channel."""
    return _entropies(family, d, q)[1]


@_exact
def r_inf(family: str, d: int, q) -> Decimal:
    """Unfloored r_inf = log2 d - H(q) - I_E(Q)."""
    h_q, i_e = _entropies(family, d, q)
    return _log2_int(d) - h_q - i_e


@functools.cache
def _log2_int(d: int) -> Decimal:
    return log2(Decimal(d))


@_exact
def critical_q(family: str, d: int) -> Decimal:
    """The root of r_inf in (0, (d-1)/d), bisected to ROOT_WIDTH."""
    lo, hi = Decimal(0), Decimal(d - 1) / d
    while hi - lo > ROOT_WIDTH:
        mid = (lo + hi) / 2
        if r_inf(family, d, mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
